package main

import (
	"math"
	"testing"
	"time"

	"taskml/internal/edge"
	"taskml/internal/mat"
	"taskml/internal/metrics"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990 (exactly ten beyond)", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with nine beyond it")
	}
	if q, v := tail(seq(999), 0.99, 0.9); q != 0.9 || v != 900 {
		t.Fatalf("tail of 999 = p%g %v, want p90 900", 100*q, v)
	}
	if q, v := tail(seq(5), 0.99, 0.9); q != 1 || v != 5 {
		t.Fatalf("tail of 5 = p%g %v, want the maximum", 100*q, v)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Fatalf("median of 1..4 = %v", m)
	}
}

func TestGramCheckersRejectPerturbedEntry(t *testing.T) {
	x := reduceInput(7)
	ref, err := gram(nil, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClose(ref, serialGram(x), 1e-12); err != nil {
		t.Fatalf("tree result against serial XᵀX: %v", err)
	}
	got := ref.Clone()
	if err := checkBitIdentical(got, ref); err != nil {
		t.Fatalf("identical copy rejected: %v", err)
	}
	got.Set(17, 3, math.Nextafter(got.At(17, 3), math.Inf(1)))
	if err := checkBitIdentical(got, ref); err == nil {
		t.Fatal("entry one ulp off accepted as bit-identical")
	}
	got.Set(17, 3, got.At(17, 3)*(1+1e-9))
	if err := checkClose(got, ref, 1e-12); err == nil {
		t.Fatal("entry 1e-9 off accepted within 1e-12")
	}
}

func TestAlarmCheckerRejectsFlippedAlarm(t *testing.T) {
	const fs = 100.0
	ref := []edge.Event{{TimeSec: 5, Label: 1}, {TimeSec: 6, Label: 0}, {TimeSec: 7, Label: 0, Alarm: true}, {TimeSec: 8}}
	alarm := []edge.Event{{TimeSec: 7, Label: 0, Alarm: true}}
	cases := []struct {
		name   string
		got    []edge.Event
		pushed int
		ok     bool
	}{
		{"match", alarm, 1200, true},
		{"alarm missing", nil, 1200, false},
		{"alarm at another window", []edge.Event{{TimeSec: 8, Alarm: true}}, 1200, false},
		{"two alarms", append(alarm, alarm...), 1200, false},
		{"stream stopped before the alarm window", nil, 650, true},
		{"alarm before its window was pushed", alarm, 650, false},
	}
	for _, c := range cases {
		err := checkStreamAlarms(c.got, ref, c.pushed, fs)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := checkStreamAlarms(alarm, ref[:2], 1200, fs); err == nil {
		t.Error("alarm accepted where the reference raises none")
	}
}

func TestConfusionCheckerRejectsChangedCell(t *testing.T) {
	first := metrics.NewConfusion(2)
	first.AddAll([]int{0, 0, 1, 1, 1}, []int{0, 1, 1, 1, 0})
	same := metrics.NewConfusion(2)
	same.Merge(first)
	if err := checkSameConfusion(same, first); err != nil {
		t.Fatalf("equal matrices rejected: %v", err)
	}
	same.Counts[1][0]++
	if err := checkSameConfusion(same, first); err == nil {
		t.Fatal("changed cell accepted")
	}
	if err := checkAccuracy(first, 5, 0.5); err != nil {
		t.Fatalf("accuracy 0.6 rejected at floor 0.5: %v", err)
	}
	if err := checkAccuracy(first, 5, 0.7); err == nil {
		t.Fatal("accuracy 0.6 accepted at floor 0.7")
	}
	if err := checkAccuracy(first, 6, 0); err == nil {
		t.Fatal("5 predictions accepted for 6 rows")
	}
}

// fakeClock advances only when the generator sleeps or the test does work.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestPacerCountsGeneratorLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	p := pacer{clk: clk}
	start := clk.now
	// Work items due every 10 ms that each take 15 ms: the generator falls
	// 5 ms further behind on every item.
	for i := 0; i < 4; i++ {
		p.await(start.Add(time.Duration(i) * 10 * time.Millisecond))
		clk.now = clk.now.Add(15 * time.Millisecond)
	}
	want := []float64{0, 5, 10, 15}
	for i, w := range want {
		if p.lags[i] != w {
			t.Fatalf("lags = %v, want %v", p.lags, want)
		}
	}
	if got := p.lagTail(); got != 15 {
		t.Fatalf("lag tail of 4 samples = %v, want the maximum 15", got)
	}
	// A generator ahead of its schedule sleeps and is never late.
	p = pacer{clk: clk}
	due := clk.now.Add(time.Second)
	if now := p.await(due); !now.Equal(due) || p.lags[0] != 0 {
		t.Fatalf("early await returned %v with lag %v", now, p.lags[0])
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	bench := []span{
		{name: "pass", start: at(0), end: at(100), parent: -1},
		{name: "pca", start: at(10), end: at(50), parent: 0},
		{name: "push", start: at(60), end: at(70), parent: 0, leaf: true},
	}
	tasks := []span{
		{name: "task:a", start: at(12), end: at(30), leaf: true},
		{name: "task:b", start: at(20), end: at(40), leaf: true}, // overlaps a
		{name: "task:c", start: at(62), end: at(68), leaf: true}, // inside a leaf: charged to pass
	}
	self := map[string]float64{}
	for _, r := range selfTimes(bench, tasks) {
		self[r.Name] = r.SelfS * 1e3
	}
	want := map[string]float64{"pass": 100 - 40 - 10, "pca": 40 - 28, "push": 10, "task:a": 18, "task:b": 20, "task:c": 6}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v ms, want %v", name, self[name], w)
		}
	}
}

func TestSerialGramIsXtX(t *testing.T) {
	x := mat.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := serialGram(x)
	want := []float64{35, 44, 44, 56}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("serialGram = %v, want %v", g.Data, want)
		}
	}
}
