package main

import (
	"fmt"
	"math"

	"taskml/internal/edge"
	"taskml/internal/mat"
	"taskml/internal/metrics"
)

// serialGram is the independent reference for the reduce workload: a plain
// row-by-row XᵀX with no blocking, no tasks and no shared kernel code.
func serialGram(x *mat.Dense) *mat.Dense {
	g := mat.New(x.Cols, x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Data[r*x.Cols : (r+1)*x.Cols]
		for i, a := range row {
			out := g.Data[i*x.Cols : (i+1)*x.Cols]
			for j, b := range row {
				out[j] += a * b
			}
		}
	}
	return g
}

// checkBitIdentical requires got to equal want bit for bit: the remote
// backend must reproduce the local result exactly, not approximately.
func checkBitIdentical(got, want *mat.Dense) error {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape differs from reference %dx%d", want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			return fmt.Errorf("entry (%d,%d) = %v, reference %v", i/want.Cols, i%want.Cols, got.Data[i], w)
		}
	}
	return nil
}

// checkClose requires got to be within tol of want, relative to want's
// largest magnitude. The tree and the serial product sum in different
// orders, so only closeness holds between them.
func checkClose(got, want *mat.Dense, tol float64) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var scale, diff float64
	for i, w := range want.Data {
		scale = math.Max(scale, math.Abs(w))
		diff = math.Max(diff, math.Abs(got.Data[i]-w))
	}
	if diff > tol*scale {
		return fmt.Errorf("max deviation %.3g exceeds %.0e of max magnitude %.3g", diff, tol, scale)
	}
	return nil
}

// checkStreamAlarms compares the alarms a served stream raised against the
// batch path's events for its signal (edge.Run), restricted to the windows
// the stream was fed: pushed is the sample count the stream received, so
// every reference window ending at or before it must have been scored.
func checkStreamAlarms(got []edge.Event, ref []edge.Event, pushed int, fs float64) error {
	if len(got) > 1 {
		return fmt.Errorf("%d alarms, want at most 1", len(got))
	}
	limit := float64(pushed) / fs
	var want *edge.Event
	for i := range ref {
		if ref[i].Alarm && ref[i].TimeSec <= limit {
			want = &ref[i]
			break
		}
	}
	switch {
	case want == nil && len(got) == 0:
		return nil
	case want == nil:
		return fmt.Errorf("alarm at %.2fs, reference has none", got[0].TimeSec)
	case len(got) == 0:
		return fmt.Errorf("no alarm, reference alarms at %.2fs", want.TimeSec)
	case got[0].TimeSec != want.TimeSec || !got[0].Alarm:
		return fmt.Errorf("alarm at %.2fs, reference at %.2fs", got[0].TimeSec, want.TimeSec)
	}
	return nil
}

// checkSameConfusion requires a later pass's confusion matrix to equal the
// first pass's cell for cell: the Table I matrices are fixed by the seed.
func checkSameConfusion(got, first *metrics.Confusion) error {
	if got.K != first.K {
		return fmt.Errorf("%d classes, first pass had %d", got.K, first.K)
	}
	for i := range first.Counts {
		for j, c := range first.Counts[i] {
			if got.Counts[i][j] != c {
				return fmt.Errorf("cell (%d,%d) = %d, first pass had %d", i, j, got.Counts[i][j], c)
			}
		}
	}
	return nil
}

// checkAccuracy requires a model to score every sample once and to reach
// the accuracy floor.
func checkAccuracy(c *metrics.Confusion, rows int, floor float64) error {
	if c.Total() != rows {
		return fmt.Errorf("%d predictions for %d rows", c.Total(), rows)
	}
	if acc := c.Accuracy(); acc < floor {
		return fmt.Errorf("accuracy %.3f below floor %.3f", acc, floor)
	}
	return nil
}
