package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/dsarray"
	"taskml/internal/ecg"
	"taskml/internal/edge"
	"taskml/internal/exec"
	"taskml/internal/forest"
	"taskml/internal/mat"
	"taskml/internal/par"
	"taskml/internal/serve"
	"taskml/internal/trace"
)

// The serve workload is a serve.Server scoring with core.ServeScorer on two
// loopback workers, the forest trained during set-up as cmd/serve does. It
// uses exec the opposite way from reduce: many small messages, one large
// resident value read by every batch. It runs two phases.
//
// The analysis window is cmd/serve's default, 8 s. The stride and the
// stream length are shorter than cmd/serve's 4 s and 24 s, because the run
// has to fit in about 20 s: a 24 s stream cannot be paced in real time
// within it, and at a 4 s stride a 12 s stream has two windows, so few
// streams alarm (63 of 2000 in a probe) and the offered rate is an eighth.
// At a 0.5 s stride a 12 s stream has nine windows and most streams alarm.
//
// Paced: servePaced streams, each admitted at its first push and fed its
// whole signal one stride per stride of wall clock, staggered across the
// stride. The schedule is open loop: alarm latency is measured from when the
// push completing the alarm window was due, so a late generator counts. The
// offered rate, servePaced/serveStrideSec = 4000 windows/s, is about a
// fifth of what the saturation phase sustains on a two-core client.
// Admission control projects load from the service time per window it last
// measured, which runs up to twice the saturated cost and higher while the
// machine is busy: at half the capacity it refuses streams, and at a third
// it did so in a noisy period.
//
// Saturation: serveSaturated streams replay their signals on a server of
// their own; each round pushes one stride to every stream and then waits
// for the server to go idle. The median round's windows scored per second is
// the throughput. Rounds run faster than real time, which the admission
// projection (load from the configured stride) does not model, so this
// server has the SLO projection off: it measures capacity, and the paced
// phase covers admission.
const (
	serveFs        = 100.0
	serveWindowSec = 8.0
	serveStrideSec = 0.5
	serveStreamSec = 12.0
	servePool      = 32
	servePaced     = 2000
	serveSaturated = 3000
)

func serveWindow() edge.Config {
	return edge.Config{
		Fs: serveFs, WindowSec: serveWindowSec, StrideSec: serveStrideSec,
		AlarmAfter: 2, PositiveLabel: core.LabelAF,
	}
}

// trainServeModel fits the deployed forest on exact analysis windows cut
// from synthetic recordings (the cmd/serve recipe).
func trainServeModel(rt *compss.Runtime, seed int64) (*core.ServeModel, error) {
	const trees, perClass = 15, 40
	feat := core.FeatureConfig{PadSec: serveWindowSec, Window: 128, MaxFreqHz: 30, TimePool: 2}
	gen := ecg.NewGenerator(ecg.GenConfig{
		Fs: serveFs, Seed: seed, MinDurSec: serveWindowSec + 1, MaxDurSec: serveWindowSec + 6,
		NoiseStd: 0.05, AFSubtlety: 0.05,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	var rows [][]float64
	var labels []int
	for _, class := range []ecg.Class{ecg.Normal, ecg.AF} {
		for i := 0; i < perClass; i++ {
			rec := gen.Record(class)
			win := int(serveWindowSec * rec.Fs)
			at := rng.Intn(len(rec.Signal) - win)
			f, err := feat.Features(ecg.Record{Signal: rec.Signal[at : at+win], Fs: rec.Fs})
			if err != nil {
				return nil, err
			}
			rows = append(rows, f)
			label := core.LabelNormal
			if class == ecg.AF {
				label = core.LabelAF
			}
			labels = append(labels, label)
		}
	}
	x := mat.NewFromRows(rows)
	chunk := max(len(rows)/4, 1)
	xa := dsarray.FromMatrix(rt.Main(), x, chunk, x.Cols)
	ya := dsarray.FromLabels(rt.Main(), labels, chunk)
	rf := &forest.RandomForest{Params: forest.Params{NEstimators: trees, Seed: seed}}
	if err := rf.Fit(xa, ya); err != nil {
		return nil, err
	}
	nodes, err := rf.Trees(rt.Main())
	if err != nil {
		return nil, err
	}
	return &core.ServeModel{Feat: feat, Trees: nodes}, nil
}

// signalPool builds the paroxysmal recordings streams replay, AF onset
// between 35% and 65% in.
func signalPool(seed int64) [][]float64 {
	pool := make([][]float64, servePool)
	for i := range pool {
		normal := serveStreamSec * (0.35 + 0.3*float64(i)/float64(servePool-1))
		gen := ecg.NewGenerator(ecg.GenConfig{
			Fs: serveFs, Seed: seed + 100 + int64(i), NoiseStd: 0.05, AFSubtlety: 0.05,
		})
		rec, _ := gen.Paroxysmal(normal, serveStreamSec-normal)
		pool[i] = rec.Signal
	}
	return pool
}

// streamRec is the load generator's record of one offered stream.
type streamRec struct {
	st     *serve.Stream
	sig    int       // pool index
	due0   time.Time // when its first push was due
	pushed int       // samples pushed
	alarms []edge.Event
	at     []time.Time // when each alarm reached OnAlarm
}

// serveSLO is cmd/serve's default admission target.
const serveSLO = 250 * time.Millisecond

// plane is one server, on a runtime of its own, over the shared fleet.
type plane struct {
	srv *serve.Server

	mu      sync.Mutex
	streams map[int]*streamRec
}

// newPlane builds a plane; slo 0 turns admission's SLO projection off.
func newPlane(fleet *exec.Remote, model *core.ServeModel, slo time.Duration, obs []compss.Observer, hook func(serve.Sample)) (*plane, error) {
	p := &plane{streams: map[int]*streamRec{}}
	rt := compss.New(compss.Config{Backend: fleet, Observers: obs})
	cfg := serve.Config{
		Window:  serveWindow(),
		Score:   core.ServeScorer(rt.Main(), model),
		SLO:     slo,
		Slots:   fleet.SlotTotal(),
		Hook:    hook,
		OnAlarm: p.onAlarm,
	}
	var err error
	p.srv, err = serve.New(rt, cfg)
	return p, err
}

func (p *plane) onAlarm(id int, ev edge.Event, _ time.Duration) {
	now := time.Now()
	p.mu.Lock()
	if r := p.streams[id]; r != nil {
		r.alarms = append(r.alarms, ev)
		r.at = append(r.at, now)
	}
	p.mu.Unlock()
}

// admit opens a stream replaying pool signal sig; nil when refused.
func (p *plane) admit(sig int, due time.Time, tr *tracer, parent int) (*streamRec, error) {
	sp := tr.beginLeaf("serve.admit", parent)
	st, err := p.srv.Admit()
	tr.end(sp)
	var capErr *serve.CapacityError
	if errors.As(err, &capErr) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	r := &streamRec{st: st, sig: sig, due0: due}
	p.mu.Lock()
	p.streams[st.ID()] = r
	p.mu.Unlock()
	return r, nil
}

// push feeds the stream its next stride; false once the signal is done.
func (p *plane) push(r *streamRec, pool [][]float64, tr *tracer, parent int) (bool, error) {
	sig := pool[r.sig]
	if r.pushed >= len(sig) {
		return false, nil
	}
	end := min(r.pushed+serveWindow().StrideSamples(), len(sig))
	sp := tr.beginLeaf("serve.push", parent)
	err := r.st.Push(sig[r.pushed:end]...)
	tr.end(sp)
	r.pushed = end
	return true, err
}

// check compares every stream's alarms with the batch path. A stream with
// windows shed, or skipped because their scoring task failed, is not
// comparable: it counts as failed.
func (p *plane) check(recs []*streamRec, refs [][]edge.Event, out *outcome, phase string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		if st := r.st.Stats(); st.Shed > 0 || st.Scored+st.Shed < st.Windows {
			out.failed++
			continue
		}
		if err := checkStreamAlarms(r.alarms, refs[r.sig], r.pushed, serveFs); err != nil {
			out.fail("%s stream %d (signal %d): %v", phase, r.st.ID(), r.sig, err)
		}
	}
}

// latencies returns each alarm's latency from the due time of the push
// that completed its window.
func (p *plane) latencies(recs []*streamRec) []float64 {
	strideN := serveWindow().StrideSamples()
	stride := time.Duration(serveStrideSec * float64(time.Second))
	p.mu.Lock()
	defer p.mu.Unlock()
	var lats []float64
	for _, r := range recs {
		for i, ev := range r.alarms {
			end := int(math.Round(ev.TimeSec * serveFs))
			due := r.due0.Add(time.Duration(end/strideN-1) * stride)
			lats = append(lats, ms(r.at[i].Sub(due)))
		}
	}
	return lats
}

// pushLooped feeds the stream its next stride of its signal replayed in a
// loop.
func (p *plane) pushLooped(r *streamRec, pool [][]float64) error {
	sig := pool[r.sig]
	chunk := make([]float64, serveWindow().StrideSamples())
	for i := range chunk {
		chunk[i] = sig[(r.pushed+i)%len(sig)]
	}
	r.pushed += len(chunk)
	return r.st.Push(chunk...)
}

// loopedRefs runs the batch path on each pool signal replayed to the length
// the saturation streams were fed (all of a plane's streams push in
// lockstep, so one length serves them all).
func loopedRefs(s *serveState, recs []*streamRec) ([][]edge.Event, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	n := recs[0].pushed
	feat, cls := s.model.Edge()
	refs := make([][]edge.Event, len(s.pool))
	for i, sig := range s.pool {
		looped := make([]float64, n)
		for j := range looped {
			looped[j] = sig[j%len(sig)]
		}
		events, _, err := edge.Run(serveWindow(), feat, cls, looped)
		if err != nil {
			return nil, fmt.Errorf("edge.Run on looped signal %d: %w", i, err)
		}
		refs[i] = events
	}
	return refs, nil
}

// serveState is what set-up leaves for the measured phases.
type serveState struct {
	fleet *exec.Remote
	model *core.ServeModel
	pool  [][]float64
	refs  [][]edge.Event
}

// serveSetup starts the fleet, trains the model, builds the signal pool and
// its references, and returns them with a warmed plane.
func serveSetup(seed int64, obs []compss.Observer, hook func(serve.Sample)) (s *serveState, p *plane, err error) {
	s = &serveState{}
	if s.fleet, err = openFleet(); err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			if p != nil {
				p.srv.Close()
			}
			s.fleet.Close()
		}
	}()
	rt := compss.New(compss.Config{Backend: s.fleet})
	s.model, err = trainServeModel(rt, seed)
	if berr := rt.Barrier(); err == nil {
		err = berr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	par.SetLimit(1) // scoring bodies get one kernel goroutine each
	s.pool = signalPool(seed)
	feat, cls := s.model.Edge()
	for i, sig := range s.pool {
		events, _, err := edge.Run(serveWindow(), feat, cls, sig)
		if err != nil {
			return nil, nil, fmt.Errorf("edge.Run on signal %d: %w", i, err)
		}
		s.refs = append(s.refs, events)
	}
	if p, err = newPlane(s.fleet, s.model, serveSLO, obs, hook); err != nil {
		return nil, nil, err
	}
	if err = s.warmUp(p); err != nil {
		return nil, nil, err
	}
	return s, p, nil
}

// warmUp replays the pool through a plane and checks it, so the model is
// resident on the workers before timing starts. Each round cuts one full
// batch (MaxBatch windows, scored alone), the batch shape of the paced
// phase, so admission starts from a representative service time.
func (s *serveState) warmUp(p *plane) error {
	const streams = 64 // serve.Config.MaxBatch default
	var recs []*streamRec
	for i := 0; i < streams; i++ {
		r, err := p.admit(i%servePool, time.Now(), nil, -1)
		if err != nil || r == nil {
			return fmt.Errorf("warm-up admission: %v", err)
		}
		recs = append(recs, r)
	}
	for more := true; more; {
		more = false
		for _, r := range recs {
			pushed, err := p.push(r, s.pool, nil, -1)
			if err != nil {
				return err
			}
			more = more || pushed
		}
		p.srv.Flush()
		p.srv.WaitIdle()
	}
	for _, r := range recs {
		r.st.Close()
	}
	var o outcome
	p.check(recs, s.refs, &o, "warm-up")
	if o.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d streams shed or wrong: %v", o.failed, len(recs), o.problems)
	}
	return nil
}

func runServe(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	stats := compss.NewStatsObserver()
	col := trace.NewCollector()
	var tr *tracer
	var obs []compss.Observer
	var hook func(serve.Sample)
	if cfg.trace {
		tr = &tracer{}
		obs, hook = []compss.Observer{stats, col}, col.AddServeSample
	}

	// Set-up, nine times: fleet, model, references, and a warmed plane.
	var setups []float64
	var s *serveState
	var main *plane
	for len(setups) < 9 {
		if s != nil {
			main.srv.Close()
			s.fleet.Close()
			s = nil
		}
		t0 := time.Now()
		st, p, err := serveSetup(cfg.seed, obs, hook)
		if err != nil {
			if err := out.errored(cfg.log, "set-up", err); err != nil {
				return nil, err
			}
			continue
		}
		s, main = st, p
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.fleet.Close()
	defer main.srv.Close()
	out.metrics["setup_s"] = median(setups)
	fmt.Fprintf(cfg.log, "serve: after set-up, admission's service estimate is %v per window\n", main.srv.Metrics().ServicePerWindow)
	if cfg.trace {
		s.fleet.SetFleetHook(col.AddFleetEvent)
		s.fleet.SetCacheHook(col.AddCacheSample)
	}

	// The layer metrics cover the paced phase only: note where the
	// observer streams stand before and after it.
	statsBefore, samplesBefore := len(stats.Stats()), len(col.ServeSamples())
	eventsBefore := len(col.Events())
	scoredBefore := main.srv.Metrics().Scored
	remoteBefore := s.fleet.Stats()
	pc := pacer{clk: wallClock{}}
	admitted, pacedWall, err := s.paced(main, &pc, tr, out)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// The paced phase is a fixed amount of work; the serving runtime
		// keeps about 3 KB per scored window, so the reading is taken here.
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	main.check(admitted, s.refs, out, "paced")
	lats := main.latencies(admitted)
	pm := main.srv.Metrics()
	_, tailV := tail(lats, tailQ)
	q99, p99 := tail(lats, 0.99)
	fmt.Fprintf(cfg.log, "serve: paced %d streams, %d alarms, alarm p50 %.2f ms p90 %.2f ms p%g %.2f ms, lag p99 %.2f ms, shed %d rejected %d\n",
		len(admitted), len(lats), median(lats), tailV, 100*q99, p99, pc.lagTail(), pm.Shed, pm.Rejected)
	if cfg.trace {
		per1k := float64(pm.Scored-scoredBefore) / 1000
		var delta exec.RemoteStats
		accumulate(&delta, remoteBefore, s.fleet.Stats())
		addExec(out.metrics, delta, per1k)
		addCompss(out.metrics, stats.Stats()[statsBefore:], per1k, pacedWall, s.fleet.SlotTotal())
		addServe(out.metrics, tr, col.ServeSamples()[samplesBefore:], col.Events()[eventsBefore:], pm)
		out.metrics["driver.lag_p99_ms"] = pc.lagTail()
	}

	// Saturation, on planes without the SLO projection. The traced run
	// alternates rounds between a traced plane and an untraced one, for
	// trace.overhead_frac.
	var planes []*plane
	n := 1
	if cfg.trace {
		n = 2
	}
	for pi := 0; pi < n; pi++ {
		pobs, phook := obs, hook
		if pi == 1 {
			pobs, phook = nil, nil
		}
		p, err := newPlane(s.fleet, s.model, 0, pobs, phook)
		if err != nil {
			return nil, err
		}
		defer p.srv.Close()
		planes = append(planes, p)
	}
	hooks := func(pi int) {
		if pi == 0 && cfg.trace {
			s.fleet.SetCacheHook(col.AddCacheSample)
		} else {
			s.fleet.SetCacheHook(nil)
		}
	}
	sat, err := s.saturate(planes, max(cfg.seconds-pacedWall, 3*time.Second), hooks, tr, out)
	if err != nil {
		return nil, err
	}
	throughput := median(sat[0].rates)
	fmt.Fprintf(cfg.log, "serve: saturation %d streams, %d windows in %d rounds, %.2fs, median %.0f windows/s\n",
		len(sat[0].recs), sat[0].windows, len(sat[0].rates), sat[0].wall.Seconds(), throughput)

	if !cfg.trace {
		out.metrics["latency_p50_ms"] = median(lats)
		out.metrics["latency_tail_ms"] = tailV
		out.metrics["throughput_per_s"] = throughput
		return out, nil
	}
	perWindow := func(sp satPlane) float64 { return sp.wall.Seconds() / float64(sp.windows) }
	out.metrics["trace.overhead_frac"] = perWindow(sat[0]) / perWindow(sat[1])
	return out, writeTrace(cfg, "serve", tr, col)
}

// paced offers servePaced streams on the open-loop schedule, waits for the
// server to drain, and returns the admitted streams and the phase's wall
// time.
func (s *serveState) paced(p *plane, pc *pacer, tr *tracer, out *outcome) ([]*streamRec, time.Duration, error) {
	stride := time.Duration(serveStrideSec * float64(time.Second))
	recs := make([]*streamRec, servePaced)
	phase := tr.begin("serve.paced", -1)
	t0 := time.Now().Add(10 * time.Millisecond)
	pushes := int(math.Ceil(serveStreamSec / serveStrideSec))
	for k := 0; k < pushes; k++ {
		for i := range recs {
			due := t0.Add(time.Duration(i)*stride/servePaced + time.Duration(k)*stride)
			pc.await(due)
			if k == 0 {
				out.attempted++
				r, err := p.admit(i%servePool, due, tr, phase)
				if err != nil {
					return nil, 0, err
				}
				if r == nil {
					out.failed++ // refused by admission control
				}
				recs[i] = r
			}
			if recs[i] == nil {
				continue
			}
			if _, err := p.push(recs[i], s.pool, tr, phase); err != nil {
				return nil, 0, err
			}
		}
	}
	p.srv.Flush()
	p.srv.WaitIdle()
	tr.end(phase)
	wall := time.Since(t0)
	var admitted []*streamRec
	for _, r := range recs {
		if r != nil {
			admitted = append(admitted, r)
			r.st.Close()
		}
	}
	return admitted, wall, nil
}

// satPlane is one plane's share of the saturation phase.
type satPlane struct {
	recs    []*streamRec
	wall    time.Duration
	windows int64
	rates   []float64 // windows per second of each timed round
}

// saturate admits serveSaturated streams per plane, then runs rounds, one
// plane at a time, until d has passed: every stream pushes one stride of
// its signal replayed in a loop, so no stream is admitted under load, and
// the round ends when the server is idle. hooks(pi) runs before each round
// on plane pi. Every stream is checked at the end.
func (s *serveState) saturate(planes []*plane, d time.Duration, hooks func(pi int), tr *tracer, out *outcome) ([]satPlane, error) {
	sat := make([]satPlane, len(planes))
	for pi, p := range planes {
		for i := 0; i < serveSaturated; i++ {
			out.attempted++
			r, err := p.admit(i%servePool, time.Now(), nil, -1)
			if err != nil {
				return nil, err
			}
			if r == nil {
				out.failed++
				continue
			}
			sat[pi].recs = append(sat[pi].recs, r)
		}
	}
	// Rounds before a stream's first full window cut nothing; only the
	// rounds after them are timed.
	warm := serveWindow().WindowSamples()/serveWindow().StrideSamples() - 1
	begin := time.Now()
	for round := 0; round < (warm+2)*len(planes) || time.Since(begin) < d; round++ {
		pi := round % len(planes)
		p, sp := planes[pi], &sat[pi]
		hooks(pi)
		scored := p.srv.Metrics().Scored
		rs := tr.begin("serve.round", -1)
		r0 := time.Now()
		for _, r := range sp.recs {
			if err := p.pushLooped(r, s.pool); err != nil {
				return nil, err
			}
		}
		p.srv.WaitIdle()
		tr.end(rs)
		if round/len(planes) >= warm {
			wall, windows := time.Since(r0), p.srv.Metrics().Scored-scored
			sp.wall += wall
			sp.windows += windows
			sp.rates = append(sp.rates, float64(windows)/wall.Seconds())
		}
	}
	for pi, p := range planes {
		p.srv.Flush()
		p.srv.WaitIdle()
		refs, err := loopedRefs(s, sat[pi].recs)
		if err != nil {
			return nil, err
		}
		p.check(sat[pi].recs, refs, out, "saturation")
	}
	return sat, nil
}

// addServe fills the serving-plane metrics from the paced phase's spans,
// hook samples and task events.
func addServe(m map[string]float64, tr *tracer, samples []trace.ServeSample, events []compss.Event, pm serve.Metrics) {
	m["serve.admit_us"] = median(tr.durations("serve.admit")) * 1e3
	m["serve.push_us"] = median(tr.durations("serve.push")) * 1e3
	var flushes, batched, queueMax float64
	for _, sm := range samples {
		if sm.Kind == "flush" {
			flushes++
			batched += float64(sm.Batch)
		}
		queueMax = math.Max(queueMax, float64(sm.Pending))
	}
	if flushes > 0 {
		m["serve.batch_mean"] = batched / flushes
	}
	m["serve.queue_max"] = queueMax
	m["serve.score_ms"] = median(submitToEnd(events, "serve_score"))
	m["serve.shed"] = float64(pm.Shed)
	m["serve.rejected"] = float64(pm.Rejected)
}

// submitToEnd returns, per task named name, the ms from its submission to
// its successful end.
func submitToEnd(events []compss.Event, name string) []float64 {
	submitted := map[int]time.Time{}
	var out []float64
	for _, ev := range events {
		if ev.Name != name {
			continue
		}
		switch ev.Kind {
		case compss.EventSubmit:
			submitted[ev.Task] = ev.Time
		case compss.EventEnd:
			if t, ok := submitted[ev.Task]; ok {
				out = append(out, ms(ev.Time.Sub(t)))
				delete(submitted, ev.Task)
			}
		}
	}
	return out
}
