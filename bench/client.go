package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxInflight bounds the benchmark's request goroutines and its HTTP
// connections: the load generator shares the machine's two cores with the
// in-process daemon, and more clients than cores would measure the Go
// scheduler instead of the daemon.
const maxInflight = 2

// client drives one daemon over HTTP through at most maxInflight pooled
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxInflight,
		MaxIdleConnsPerHost: maxInflight,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// call sends one request, requires the wanted status, and decodes the
// response into out (when out is non-nil).
func (c *client) call(method, path string, body []byte, want int, out any) error {
	code, data, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// errNotSent marks an open-loop request its stop time overtook before it
// could be sent.
var errNotSent = errors.New("not sent before the step ended")

// sample is one open-loop request: when it was due, sent, and answered.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latencyMS is the request's latency counted from its due time, so a stall
// charges its wait to every request queued behind it; a failed request is
// +Inf.
func (s sample) latencyMS() float64 {
	if s.err != nil || s.done.IsZero() {
		return inf
	}
	return float64(s.done.Sub(s.due)) / 1e6
}

// latenessMS is how late the generator sent the request.
func (s sample) latenessMS() float64 {
	if s.sent.IsZero() {
		return 0
	}
	return float64(s.sent.Sub(s.due)) / 1e6
}

// openLoop sends n requests due at start + i/rate, from workers goroutines
// that each take the next due request as soon as they are free. A request
// still unsent at stopAt is recorded as failed. send(i) issues request i
// and reports its failure.
func openLoop(workers int, start time.Time, rate float64, n int, stopAt time.Time, send func(i int) error) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				if now := time.Now(); now.After(stopAt) {
					s.err = errNotSent
					continue
				}
				s.sent = time.Now()
				s.err = send(i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return samples
}

// ladderStep is one rate the capacity ladder tried.
type ladderStep struct {
	rate, p99MS, completed float64
	ok                     bool
}

// judgeStep applies the capacity limit to one open-loop step: the p99
// latency, counted from due times with failures as +Inf, stays within
// limitMS, and at least 99% of the scheduled requests complete.
func judgeStep(rate float64, ss []sample, limitMS float64) ladderStep {
	lat := make([]float64, len(ss))
	completed := 0
	for i, s := range ss {
		lat[i] = s.latencyMS()
		if s.err == nil {
			completed++
		}
	}
	st := ladderStep{rate: rate, p99MS: quantile(sortedCopy(lat), 0.99), completed: ratio(float64(completed), float64(len(ss)))}
	st.ok = st.p99MS <= limitMS && st.completed >= 0.99
	return st
}

// capacityLadder finds the highest open-loop rate that meets limitMS. It
// tries from, then doubles the rate until a step fails (halving instead
// while no step has passed), then bisects between the highest passing and
// the lowest failing rate until they are within 5% of each other, taking at
// most maxSteps steps. step runs one step at a rate and returns its samples.
// It returns the highest passing rate (0 when none passed) and every step.
func capacityLadder(from, limitMS float64, maxSteps int, step func(rate float64) []sample) (float64, []ladderStep) {
	lo, hi := 0.0, inf
	var steps []ladderStep
	for rate := from; len(steps) < maxSteps && (lo == 0 || hi-lo > 0.05*lo); {
		st := judgeStep(rate, step(rate), limitMS)
		steps = append(steps, st)
		if st.ok {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case hi == inf:
			rate = 2 * lo
		case lo == 0:
			rate = hi / 2
		default:
			rate = (lo + hi) / 2
		}
	}
	return lo, steps
}
