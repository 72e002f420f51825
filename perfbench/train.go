package main

import (
	"fmt"
	"runtime"
	"time"

	"taskml/internal/compss"
	"taskml/internal/core"
	"taskml/internal/metrics"
	"taskml/internal/par"
	"taskml/internal/trace"
)

// The train workload is the Table I pipeline run in process: dataset
// build, PCA, then 5-fold CV of csvm, knn, rf and cnn. Pooling three STFT
// segments gives 240 rows × 300 features, which keeps the PCA eigensolve
// near a third of a pass; at the default 1020 features it dominates.

// layerOf names the layer each model's CV is charged to.
var layerOf = map[core.Model]string{
	core.ModelCSVM: "svm",
	core.ModelKNN:  "knn",
	core.ModelRF:   "forest",
	core.ModelCNN:  "eddl",
}

// trainRSSPasses is how many passes a run has completed when it reads
// peak_rss_mb. It is also the fewest passes a run makes, which the traced
// run needs: one traced and one untraced.
const trainRSSPasses = 2

// accuracyMargin is how far above chance rf and cnn must score; the other
// two models sit near chance at this size.
const accuracyMargin = 0.15

func trainData(seed int64) core.DataConfig {
	cfg := core.TableIData(1, seed)
	cfg.Feature.TimePool = 3
	return cfg
}

// smokeData is the set-up pass's input: the same pipeline on a quarter of
// the records and half of the features.
func smokeData(seed int64) core.DataConfig {
	cfg := trainData(seed)
	cfg.NNormal, cfg.NAF = 30, 5
	cfg.Feature.TimePool = 6
	return cfg
}

// passResult is one pass's output.
type passResult struct {
	wall   time.Duration
	rows   int
	chance float64
	conf   map[core.Model]*metrics.Confusion
}

// trainPass runs one full pass. Observers and tr are nil in untraced passes.
func trainPass(dcfg core.DataConfig, seed int64, tr *tracer, obs []compss.Observer) (*passResult, error) {
	start := time.Now()
	root := tr.begin("train.pass", -1)
	defer tr.end(root)

	// The dataset is built on the master with the kernel layer at full
	// width; from PCA on the task runtime owns parallelism (internal/par).
	par.SetLimit(runtime.GOMAXPROCS(0))
	sp := tr.begin("core.dataset", root)
	ds, err := core.BuildDataset(dcfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	par.SetLimit(1)

	cfg := core.TableIPipeline(seed)
	sp = tr.begin("preproc.pca", root)
	rt := compss.New(compss.Config{Observers: obs})
	rx, k, err := core.ReduceWithPCA(rt, ds, cfg)
	if berr := rt.Barrier(); err == nil {
		err = berr
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	res := &passResult{rows: len(ds.Y), conf: map[core.Model]*metrics.Confusion{}}
	af, normal := ds.Counts()
	res.chance = float64(max(af, normal)) / float64(len(ds.Y))
	for _, m := range core.Models {
		sp = tr.begin(layerOf[m]+".cv", root)
		mrt := compss.New(compss.Config{Observers: obs})
		rep, err := core.RunCVReduced(m, mrt, rx, k, ds.Y, cfg)
		// Barrier also on failure, so no task of a failed pass runs on
		// into the next one.
		if berr := mrt.Barrier(); err == nil {
			err = berr
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		res.conf[m] = rep.Confusion
	}
	res.wall = time.Since(start)
	return res, nil
}

// checkPass compares a pass with the run's first pass and applies the
// accuracy floor.
func checkPass(res, first *passResult) error {
	for _, m := range core.Models {
		if first != nil {
			if err := checkSameConfusion(res.conf[m], first.conf[m]); err != nil {
				return fmt.Errorf("%s: %w", m, err)
			}
		}
		floor := 0.0
		if m == core.ModelRF || m == core.ModelCNN {
			floor = res.chance + accuracyMargin
		}
		if err := checkAccuracy(res.conf[m], res.rows, floor); err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
	}
	return nil
}

func runTrain(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}

	// Set-up: a smoke pass on a quarter of the records, seven times. It
	// warms the heap and the runtime and fails fast on a broken build.
	var setups []float64
	for len(setups) < 7 {
		t0 := time.Now()
		if _, err := trainPass(smokeData(cfg.seed), cfg.seed, nil, nil); err != nil {
			if err := out.errored(cfg.log, "set-up pass", err); err != nil {
				return nil, err
			}
			continue
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	// A closed loop of passes. The traced run alternates untraced and
	// traced passes, so trace.overhead_frac compares neighbours.
	tr := &tracer{}
	stats := compss.NewStatsObserver()
	col := trace.NewCollector()
	obs := []compss.Observer{stats, col}
	pc := pacer{clk: wallClock{}}
	var first *passResult
	var walls, traced, untraced []float64
	var tracedWall time.Duration
	begin := time.Now()
	prevEnd := begin
	for i := 0; len(walls) < trainRSSPasses || time.Since(begin) < cfg.seconds; i++ {
		pc.await(prevEnd)
		on := cfg.trace && i%2 == 1
		var res *passResult
		var err error
		if on {
			res, err = trainPass(trainData(cfg.seed), cfg.seed, tr, obs)
		} else {
			res, err = trainPass(trainData(cfg.seed), cfg.seed, nil, nil)
		}
		prevEnd = time.Now()
		if err != nil {
			if err := out.errored(cfg.log, fmt.Sprintf("pass %d", i), err); err != nil {
				return nil, err
			}
			continue
		}
		out.attempted++
		if err := checkPass(res, first); err != nil {
			out.fail("pass %d: %v", i, err)
		}
		if first == nil {
			first = res
		}
		walls = append(walls, ms(res.wall))
		if !cfg.trace && len(walls) == trainRSSPasses {
			out.metrics["peak_rss_mb"] = peakRSSMB()
		}
		if on {
			traced = append(traced, ms(res.wall))
			tracedWall += res.wall
		} else {
			untraced = append(untraced, ms(res.wall))
		}
	}
	fmt.Fprintf(cfg.log, "train: %d passes, median %.0f ms, pass walls %v ms\n", len(walls), median(walls), rounded(walls))
	for _, m := range core.Models {
		fmt.Fprintf(cfg.log, "train: %s accuracy %.3f (chance %.3f)\n", m, first.conf[m].Accuracy(), first.chance)
	}

	if !cfg.trace {
		_, tailV := tail(walls, tailQ)
		var sum float64
		for _, w := range walls {
			sum += w
		}
		out.metrics["latency_p50_ms"] = median(walls)
		out.metrics["latency_tail_ms"] = tailV
		out.metrics["throughput_per_s"] = float64(len(walls)) / (sum / 1e3)
		return out, nil
	}

	n := float64(len(traced))
	var layers time.Duration
	for _, name := range []string{"core.dataset", "preproc.pca", "svm.cv", "knn.cv", "forest.cv", "eddl.cv"} {
		out.metrics[name+"_s"] = tr.total(name).Seconds() / n
		layers += tr.total(name)
	}
	byName := stats.ByName()
	out.metrics["mat.eigsym_s"] = byName["pca_eigh"].Seconds() / n
	out.metrics["mat.gram_ms"] = ms(byName["partial_gram"]+byName["gram_merge"]) / n
	addCompss(out.metrics, stats.Stats(), n, tracedWall, runtime.GOMAXPROCS(0))
	out.metrics["driver.lag_p99_ms"] = pc.lagTail()
	out.metrics["trace.overhead_frac"] = median(traced) / median(untraced)
	fmt.Fprintf(cfg.log, "train: layer spans cover %.2f%% of the traced passes\n", 100*layers.Seconds()/tracedWall.Seconds())
	return out, writeTrace(cfg, "train", tr, col)
}

// addCompss fills the runtime metrics from finished tasks' stats: tasks and
// summed slot wait per operation, and body time over wall × slots.
func addCompss(m map[string]float64, tasks []compss.TaskStat, ops float64, wall time.Duration, slots int) {
	var queued, busy time.Duration
	for _, t := range tasks {
		queued += t.Queued
		busy += t.Duration
	}
	m["compss.tasks"] = float64(len(tasks)) / ops
	m["compss.queued_s"] = queued.Seconds() / ops
	m["compss.busy_frac"] = busy.Seconds() / (wall.Seconds() * float64(slots))
}

func rounded(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x + 0.5)
	}
	return out
}
