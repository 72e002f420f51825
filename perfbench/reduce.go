package main

import (
	"fmt"
	"time"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/exec"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/trace"
)

// The reduce workload is the `cmd/scaling -exp reduce` computation: the
// Gram matrix of a 1200×256 matrix as a tree over 300-row blocks (11
// tasks), on two loopback workers with one slot each and the default
// peer-to-peer data plane. Few tasks, heavy values: about 9 MB a reduction
// crosses coordinator and peer links. One closed-loop client repeats it,
// each reduction on a fresh runtime.
const (
	reduceRows      = 1200
	reduceCols      = 256
	reduceBlockRows = 300
	// reduceRSSOps is how many remote reductions a run has completed when
	// it reads peak_rss_mb. Each one leaves its runtime behind (about
	// 7 MB), so the reading is taken at a fixed count, not at the end.
	reduceRSSOps = 100
)

// reduceInput fills the matrix from the seed (SplitMix64), values in
// [-0.5, 0.5).
func reduceInput(seed int64) *mat.Dense {
	x := mat.New(reduceRows, reduceCols)
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := range x.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x.Data[i] = float64(z>>11)/float64(1<<53) - 0.5
	}
	return x
}

// openFleet starts the loopback fleet the way users run it: two workers,
// one slot each, reference and peer-to-peer data planes on.
func openFleet() (*exec.Remote, error) {
	b, err := exec.Open(exec.Config{Backend: "remote", Workers: 2, Slots: 1, Refs: true, P2P: true})
	if err != nil {
		return nil, err
	}
	return b.(*exec.Remote), nil
}

// gram runs one reduction on a fresh runtime over backend (nil = in
// process).
func gram(backend exec.Backend, x *mat.Dense, obs []compss.Observer) (*mat.Dense, error) {
	rt := compss.New(compss.Config{Backend: backend, Observers: obs})
	xa := dsarray.FromMatrix(rt.Main(), x, reduceBlockRows, x.Cols)
	v, err := rt.Get(xa.Gram())
	if berr := rt.Barrier(); err == nil {
		err = berr
	}
	if err != nil {
		return nil, err
	}
	g, ok := v.(*mat.Dense)
	if !ok {
		return nil, fmt.Errorf("gram returned %T", v)
	}
	return g, nil
}

// reduceSetup starts the fleet, builds the input and its references, and
// runs one checked warm-up reduction.
func reduceSetup(seed int64) (fleet *exec.Remote, x, ref *mat.Dense, err error) {
	fleet, err = openFleet()
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			fleet.Close()
		}
	}()
	x = reduceInput(seed)
	if ref, err = gram(nil, x, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("local reference: %w", err)
	}
	if err = checkClose(ref, serialGram(x), 1e-12); err != nil {
		return nil, nil, nil, fmt.Errorf("local reference against serial XᵀX: %w", err)
	}
	warm, err := gram(fleet, x, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	if err = checkBitIdentical(warm, ref); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return fleet, x, ref, nil
}

func runReduce(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	par.SetLimit(1) // every kernel below runs inside a task

	var setups []float64
	var fleet *exec.Remote
	var x, ref *mat.Dense
	for len(setups) < 9 {
		if fleet != nil {
			fleet.Close()
			fleet = nil
		}
		t0 := time.Now()
		f, xx, r, err := reduceSetup(cfg.seed)
		if err != nil {
			if err := out.errored(cfg.log, "set-up", err); err != nil {
				return nil, err
			}
			continue
		}
		fleet, x, ref = f, xx, r
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fleet.Close()
	out.metrics["setup_s"] = median(setups)

	tr := &tracer{}
	stats := compss.NewStatsObserver()
	col := trace.NewCollector()
	if cfg.trace {
		fleet.SetFleetHook(col.AddFleetEvent)
	}
	obs := []compss.Observer{stats, col}
	pc := pacer{clk: wallClock{}}
	var lats, traced, local []float64
	var tracedWall time.Duration
	var delta exec.RemoteStats
	// reduceOnce runs, checks and times one reduction of the given kind. A
	// reduction the library fails is counted and left out; the error is
	// for when too many have failed.
	reduceOnce := func(kind string) error {
		var g *mat.Dense
		var err error
		t0 := time.Now()
		switch kind {
		case "remote":
			g, err = gram(fleet, x, nil)
		case "local":
			g, err = gram(nil, x, nil)
		case "traced":
			before := fleet.Stats()
			fleet.SetCacheHook(col.AddCacheSample)
			sp := tr.begin("dsarray.gram", -1)
			g, err = gram(fleet, x, obs)
			tr.end(sp)
			fleet.SetCacheHook(nil)
			accumulate(&delta, before, fleet.Stats())
		}
		lat := time.Since(t0)
		if err != nil {
			return out.errored(cfg.log, kind+" reduction", err)
		}
		out.attempted++
		if cerr := checkBitIdentical(g, ref); cerr != nil {
			out.fail("%s reduction %d: %v", kind, out.attempted, cerr)
		}
		switch kind {
		case "remote":
			lats = append(lats, ms(lat))
			if !cfg.trace && len(lats) == reduceRSSOps {
				out.metrics["peak_rss_mb"] = peakRSSMB()
			}
		case "local":
			local = append(local, ms(lat))
		case "traced":
			traced = append(traced, ms(lat))
			tracedWall += lat
		}
		return nil
	}

	begin := time.Now()
	prevEnd := begin
	kinds := []string{"remote"}
	if cfg.trace {
		kinds = append(kinds, "traced", "local")
	}
	for len(lats) < reduceRSSOps || time.Since(begin) < cfg.seconds {
		pc.await(prevEnd)
		for _, kind := range kinds {
			if err := reduceOnce(kind); err != nil {
				return nil, err
			}
		}
		prevEnd = time.Now()
	}
	q, tailV := tail(lats, tailQ)
	fmt.Fprintf(cfg.log, "reduce: %d remote reductions, p50 %.2f ms, p%g %.2f ms\n", len(lats), median(lats), 100*q, tailV)

	if !cfg.trace {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		out.metrics["latency_p50_ms"] = median(lats)
		out.metrics["latency_tail_ms"] = tailV
		out.metrics["throughput_per_s"] = float64(len(lats)) / (sum / 1e3)
		return out, nil
	}

	n := float64(len(traced))
	byName := stats.ByName()
	out.metrics["mat.gram_ms"] = ms(byName["partial_gram"]+byName["gram_merge"]) / n
	addExec(out.metrics, delta, n)
	out.metrics["exec.overhead_ms"] = median(lats) - median(local)
	addCompss(out.metrics, stats.Stats(), n, tracedWall, fleet.SlotTotal())
	out.metrics["driver.lag_p99_ms"] = pc.lagTail()
	out.metrics["trace.overhead_frac"] = median(traced) / median(lats)
	return out, writeTrace(cfg, "reduce", tr, col)
}

// accumulate adds the counter growth between two stats snapshots to d.
func accumulate(d *exec.RemoteStats, before, after exec.RemoteStats) {
	d.Dispatched += after.Dispatched - before.Dispatched
	d.RefHits += after.RefHits - before.RefHits
	d.RefMisses += after.RefMisses - before.RefMisses
	d.MissRetries += after.MissRetries - before.MissRetries
	d.BytesSent += after.BytesSent - before.BytesSent
	d.BytesRecv += after.BytesRecv - before.BytesRecv
	d.PeerFallbacks += after.PeerFallbacks - before.PeerFallbacks
	d.PeerBytesSent += after.PeerBytesSent - before.PeerBytesSent
	d.PeerBytesRecv += after.PeerBytesRecv - before.PeerBytesRecv
}

// addExec fills the data-plane metrics from accumulated counter growth,
// each per operation (ref_hit_rate is a ratio) over ops operations.
func addExec(m map[string]float64, d exec.RemoteStats, ops float64) {
	m["exec.coord_mb"] = float64(d.BytesSent+d.BytesRecv) / 1e6 / ops
	m["exec.peer_mb"] = float64(d.PeerBytesSent+d.PeerBytesRecv) / 1e6 / ops
	m["exec.dispatched"] = float64(d.Dispatched) / ops
	if refs := d.RefHits + d.RefMisses; refs > 0 {
		m["exec.ref_hit_rate"] = float64(d.RefHits) / float64(refs)
	}
	m["exec.fallbacks"] = float64(d.PeerFallbacks+d.MissRetries) / ops
}
