package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// request is one pre-built HTTP request of a workload's list.
type request struct {
	method string // GET or POST
	path   string // path and query string
	body   []byte // POST body
	items  int    // queries the request carries (1 for a single GET)
}

// client owns one keep-alive connection to the system under test.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole answer into buf. spanID, when
// non-zero, is forwarded to the front handler as the parent span.
func (c *client) do(req request, buf *bytes.Buffer, spanID int64) (int, error) {
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, c.base+req.path, body)
	if err != nil {
		return 0, err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if spanID != 0 {
		hr.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// get is a one-off GET returning status and body (set-up and probes).
func (c *client) get(path string) (int, []byte, error) {
	var buf bytes.Buffer
	code, err := c.do(request{method: http.MethodGet, path: path}, &buf, 0)
	return code, buf.Bytes(), err
}

// waitReady polls path until it answers 200.
func (c *client) waitReady(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, body, err := c.get(path)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (status %d, %v, %s)", path, limit, code, err, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// answer is one 200 answer kept for the oracle.
type answer struct {
	key  int64
	body []byte
}

// connAcc is the outcome of one timed stretch of a loop. Answers are
// deterministic functions of (snapshot, query), so bodies are kept once
// per key and every repeat is compared with the first.
type connAcc struct {
	latMS, lateMS []float64
	startAt       []time.Duration // when each served request was sent, from the phase start
	endAt         []time.Duration // when it completed
	endItems      []int32         // queries that request served
	items         int64           // queries attempted
	served        int64           // queries in accepted 200 answers
	exact         int64           // exact-tier answers among them
	failed        int64           // queries in failed requests or repeats that differ
	reasons       map[string]int64
	first         map[int64][]byte // key -> first body
	seen          map[int64]int64  // key -> occurrences
	// loose are answers whose snapshot generation is unknown (a publish
	// overlapped the request); each is checked on its own.
	loose []answer
}

func newConnAcc() connAcc {
	return connAcc{reasons: map[string]int64{}, first: map[int64][]byte{},
		seen: map[int64]int64{}}
}

// loop is a closed loop over a fixed request list on one connection:
// the next request goes out as soon as the previous answer is read.
type loop struct {
	client *client
	reqs   []request
	tr     *tracer
	// gen, when set, reads a seqlock generation counter (odd while a
	// snapshot publish is in progress). An answer whose request saw one
	// even value before and after is keyed to that generation; other
	// answers are kept loose.
	gen func() int64
	// next is the position in reqs, carried across calls so a second
	// phase continues the sequence.
	next int
}

// loopResult is the outcome of one timed phase.
type loopResult struct {
	acc connAcc
}

// keyOf packs a request index and a generation into one map key.
func keyOf(idx int, gen int64) int64 { return int64(idx)<<24 | (gen & (1<<24 - 1)) }

func keyIdx(key int64) int { return int(key >> 24) }
func keyGen(key int64) int64 {
	g := key & (1<<24 - 1)
	if g == 1<<24-1 {
		return -1
	}
	return g
}

const differs = "answer differs from an earlier answer to the same query"

// run drives the loop from start until start+d.
func (l *loop) run(start time.Time, d time.Duration) *loopResult {
	res := &loopResult{acc: newConnAcc()}
	l.drive(&res.acc, start, start.Add(d))
	return res
}

// drive is the closed loop.
func (l *loop) drive(acc *connAcc, start, deadline time.Time) {
	var buf bytes.Buffer
	due := time.Now()
	for due.Before(deadline) {
		idx := l.next % len(l.reqs)
		l.next++
		req := l.reqs[idx]
		var g0 int64
		if l.gen != nil {
			g0 = l.gen()
		}
		var spanID, spanStart int64
		traced := l.tr.on.Load()
		sendAt := time.Now()
		if traced {
			spanID, spanStart = l.tr.newID(), l.tr.now()
		}
		code, err := l.client.do(req, &buf, spanID)
		end := time.Now()
		if traced {
			l.tr.record(span{ID: spanID, Name: "client", Start: spanStart, End: l.tr.now()})
		}
		acc.latMS = append(acc.latMS, float64(end.Sub(due))/1e6)
		acc.lateMS = append(acc.lateMS, float64(sendAt.Sub(due))/1e6)
		acc.items += int64(req.items)
		due = end
		switch {
		case err != nil:
			acc.failed += int64(req.items)
			acc.reasons["transport error"] += int64(req.items)
			continue
		case code != http.StatusOK:
			acc.failed += int64(req.items)
			acc.reasons[fmt.Sprintf("HTTP %d", code)] += int64(req.items)
			continue
		}
		gen := int64(0)
		if l.gen != nil {
			if g1 := l.gen(); g1 != g0 || g0%2 != 0 {
				acc.loose = append(acc.loose, answer{key: keyOf(idx, -1), body: bytes.Clone(buf.Bytes())})
				acc.accept(req, buf.Bytes(), sendAt.Sub(start), end.Sub(start))
				continue
			}
			gen = g0 / 2
		}
		key := keyOf(idx, gen)
		if prev, ok := acc.first[key]; !ok {
			acc.first[key] = bytes.Clone(buf.Bytes())
		} else if !bytes.Equal(prev, buf.Bytes()) {
			acc.failed += int64(req.items)
			acc.reasons[differs] += int64(req.items)
			continue
		}
		acc.seen[key]++
		acc.accept(req, buf.Bytes(), sendAt.Sub(start), end.Sub(start))
	}
}

// accept counts a served answer sent at from and read at to.
func (acc *connAcc) accept(req request, body []byte, from, to time.Duration) {
	acc.served += int64(req.items)
	acc.exact += int64(bytes.Count(body, []byte(`"tier":"exact"`)))
	acc.startAt = append(acc.startAt, from)
	acc.endAt = append(acc.endAt, to)
	acc.endItems = append(acc.endItems, int32(req.items))
}

// verify applies a workload oracle to every distinct answer: check
// returns how many of the answer's queries are wrong, and each repeat of
// a wrong answer counts again.
func (r *loopResult) verify(check func(key int64, body []byte) (wrong int, why string)) {
	keys := make([]int64, 0, len(r.acc.first))
	for k := range r.acc.first {
		keys = append(keys, k)
	}
	// Generation-major order lets an oracle keep one reference at a time.
	sort.Slice(keys, func(i, j int) bool {
		if gi, gj := keyGen(keys[i]), keyGen(keys[j]); gi != gj {
			return gi < gj
		}
		return keys[i] < keys[j]
	})
	fail := func(n int64, why string) {
		r.acc.failed += n
		r.acc.served -= n
		r.acc.reasons["wrong answer: "+why] += n
	}
	for _, k := range keys {
		if wrong, why := check(k, r.acc.first[k]); wrong > 0 {
			fail(int64(wrong)*r.acc.seen[k], why)
		}
	}
	for _, a := range r.acc.loose {
		if wrong, why := check(a.key, a.body); wrong > 0 {
			fail(int64(wrong), why)
		}
	}
}

// account adds the phase's operations to the report.
func (r *loopResult) account(rep *report) {
	rep.ops(r.acc.items, 0, "")
	for why, n := range r.acc.reasons {
		rep.ops(0, n, why)
	}
}

// windowServed counts the queries served in each of n windows of
// length w from the phase start. A request's queries are spread over
// the time it was in flight, so a window holds the share of each
// request that overlaps it and short windows are not quantised to
// whole requests.
func (r *loopResult) windowServed(w time.Duration, n int) []float64 {
	out := make([]float64, n)
	for i, from := range r.acc.startAt {
		to, items := r.acc.endAt[i], float64(r.acc.endItems[i])
		if to <= from {
			if k := int(to / w); k < n {
				out[k] += items
			}
			continue
		}
		for k := int(from / w); k < n && time.Duration(k)*w < to; k++ {
			lo, hi := max(from, time.Duration(k)*w), min(to, time.Duration(k+1)*w)
			out[k] += items * float64(hi-lo) / float64(to-from)
		}
	}
	return out
}

// percentile is the nearest-rank percentile of raw samples: always one
// of the samples, so no percentile can exceed the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
