package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls into each layer (the client's HTTP round trip, each
// http.Handler the program exposes, the Ingestor and Publisher
// interfaces). Spans stay in memory and are written when the run ends.

// spanHeader carries the client span id to the front handler, so its
// span's parent is exact. Handlers behind the coordinator get no header
// (the coordinator does not forward it) and are parented by time
// containment when the run is analysed.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since the tracer began.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.snapshot() {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer wraps one http.Handler of the program: it counts query requests
// and their response bytes always, records a span per request while tracing is
// on, and can plant one wrong answer (the oracle's self-test).
type layer struct {
	name     string
	h        http.Handler
	tr       *tracer
	requests atomic.Int64
	bytes    atomic.Int64
	// plantAt corrupts the answer to the plantAt-th request (1-based).
	plantAt int64
}

// control reports whether a path is health, readiness or discovery
// traffic (the coordinator's prober), which the layer passes through
// without counting or tracing.
func control(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/v1/shardinfo", "/debug/vars":
		return true
	}
	return false
}

func (l *layer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if control(r.URL.Path) {
		l.h.ServeHTTP(w, r)
		return
	}
	name, cw := l.name, &countingWriter{ResponseWriter: w}
	if r.URL.Path == "/v1/ingest" {
		name = "server.ingest" // pushes are not queries: traced, not counted
	} else {
		n := l.requests.Add(1)
		cw.plant = l.plantAt > 0 && n == l.plantAt
		defer func() { l.bytes.Add(cw.n) }()
	}
	traced := l.tr.on.Load()
	var start int64
	if traced {
		start = l.tr.now()
	}
	l.h.ServeHTTP(cw, r)
	if traced {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		l.tr.record(span{ID: l.tr.newID(), Parent: parent, Name: name, Start: start, End: l.tr.now()})
	}
}

// countingWriter counts body bytes and, when plant is set, changes the
// first digit of the first "distance" value it writes.
type countingWriter struct {
	http.ResponseWriter
	n     int64
	plant bool
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.plant {
		if i := bytes.Index(p, []byte(`"distance":`)); i >= 0 {
			q := append([]byte(nil), p...)
			for j := i + len(`"distance":`); j < len(q); j++ {
				if q[j] >= '0' && q[j] <= '9' {
					q[j] = '0' + (q[j]-'0'+1)%10
					c.plant = false
					break
				}
			}
			p = q
		}
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// layerStats summarises the spans of one name.
type layerStats struct {
	count     int
	meanUS    float64 // mean duration
	meanSelf  float64 // mean self time: duration minus child coverage
	childSum  float64 // mean summed child duration per span
	selfTotal float64 // summed self time, µs
}

// analysis is the traced run's span tree.
type analysis struct {
	spans    []span
	children map[int64][]int // parent id -> indices into spans
	byName   map[string]*layerStats
	// ambiguous counts containment-parented spans that more than one
	// candidate parent contained.
	ambiguous int
	rootUS    float64 // summed duration of root spans, µs
}

// containment parents spans named orphan that carry no parent id by
// time: the latest-starting span named container that holds them.
type containment struct{ orphan, container string }

// analyse resolves parents (header-linked, or by containment) and
// computes per-name mean duration and self time.
func analyse(spans []span, rules ...containment) *analysis {
	a := &analysis{spans: spans, children: map[int64][]int{}, byName: map[string]*layerStats{}}
	for _, rule := range rules {
		var containers []int
		for i, s := range spans {
			if s.Name == rule.container {
				containers = append(containers, i)
			}
		}
		sort.Slice(containers, func(x, y int) bool { return spans[containers[x]].Start < spans[containers[y]].Start })
		for i := range spans {
			s := &spans[i]
			if s.Name != rule.orphan || s.Parent != 0 {
				continue
			}
			k := sort.Search(len(containers), func(k int) bool { return spans[containers[k]].Start > s.Start })
			found := 0
			for k--; k >= 0; k-- {
				c := spans[containers[k]]
				if c.End >= s.End {
					if found == 0 {
						s.Parent = c.ID
					}
					found++
				}
				if s.Start-c.Start > int64(10*time.Second) {
					break // request deadlines are seconds: no older span can hold s
				}
			}
			if found > 1 {
				a.ambiguous++
			}
		}
	}
	index := map[int64]int{}
	for i, s := range spans {
		index[s.ID] = i
	}
	for i, s := range spans {
		if _, ok := index[s.Parent]; ok {
			a.children[s.Parent] = append(a.children[s.Parent], i)
		} else {
			a.rootUS += float64(s.dur()) / 1e3
		}
	}
	for _, s := range spans {
		st := a.byName[s.Name]
		if st == nil {
			st = &layerStats{}
			a.byName[s.Name] = st
		}
		st.count++
		st.meanUS += float64(s.dur()) / 1e3
		self := float64(a.self(s)) / 1e3
		st.meanSelf += self
		st.selfTotal += self
		for _, ci := range a.children[s.ID] {
			st.childSum += float64(spans[ci].dur()) / 1e3
		}
	}
	for _, st := range a.byName {
		n := float64(st.count)
		st.meanUS /= n
		st.meanSelf /= n
		st.childSum /= n
	}
	return a
}

// self is a span's duration minus the union of its children's
// intervals (clipped to the span).
func (a *analysis) self(s span) int64 {
	kids := a.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, ci := range kids {
		c := a.spans[ci]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - covered
}

// stats returns the named layer's summary (zero when absent).
func (a *analysis) stats(name string) layerStats {
	if st := a.byName[name]; st != nil {
		return *st
	}
	return layerStats{}
}

// selfSumRatio is the summed self time of every span over the summed
// duration of the root spans: 1 when the layers tile the client's
// latency exactly, above 1 where sub-requests overlap in parallel.
func (a *analysis) selfSumRatio() float64 {
	if a.rootUS == 0 {
		return 0
	}
	var total float64
	for _, st := range a.byName {
		total += st.selfTotal
	}
	return total / a.rootUS
}
