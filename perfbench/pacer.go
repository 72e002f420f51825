package main

import "time"

// clock is the generator's time source; the self-tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// pacer issues work at due times and records how late the generator ran:
// an open loop passes each request's schedule slot, a closed loop the
// instant the previous reply arrived. Lateness is part of every latency the
// benchmark reports, because latencies are measured from the due time.
type pacer struct {
	clk  clock
	lags []float64 // ms
}

// await blocks until due and returns the current time, recording the lag.
func (p *pacer) await(due time.Time) time.Time {
	p.clk.SleepUntil(due)
	now := p.clk.Now()
	lag := now.Sub(due)
	if lag < 0 {
		lag = 0
	}
	p.lags = append(p.lags, ms(lag))
	return now
}

// lagTail is the generator-lag tail (p99 where resolvable).
func (p *pacer) lagTail() float64 {
	_, v := tail(p.lags, 0.99, 0.9)
	return v
}
