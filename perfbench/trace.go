package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls the benchmark makes into each layer (client ops), by middleware
// wrapped around the router and worker handlers, and by a decorator
// around the disk store. The program itself is not modified.

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: root
	Name   string        `json:"name"`   // client, router, worker, store.get, store.put
	Key    string        `json:"key,omitempty"`
	Keys   []string      `json:"keys,omitempty"` // answer keys of a client op
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

func (s span) contains(c span) bool { return c.Start >= s.Start && c.End <= s.End }

// tracer keeps spans in memory until the run ends. It keeps them only
// while active, during the timed loop: set-up and the answer checks are
// not traced. A nil *tracer records nothing, so untraced runs pay one nil
// check per call.
type tracer struct {
	epoch  time.Time
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active.Store(on)
	}
}

func (t *tracer) add(s span) {
	if t == nil || !t.active.Load() {
		return
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps h so that each request it serves becomes a span named
// name, keyed by the fingerprint the worker reports in X-Ltsimd-Key.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(flushWriter{w}, r)
		t.add(span{Name: name, Key: w.Header().Get("X-Ltsimd-Key"), Start: start, End: t.now()})
	})
}

// flushWriter hides every optional interface of the wrapped writer but
// http.Flusher, which the sweep handlers use to stream NDJSON.
type flushWriter struct{ http.ResponseWriter }

func (f flushWriter) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// timedStore decorates a DiskStore: it counts and times every Get and
// Put and, when tracing, records each as a span keyed by fingerprint.
// Embedding keeps the DiskStore's other methods (Instrument included,
// so the service still registers the store's metric families).
type timedStore struct {
	*store.DiskStore
	tr                 *tracer
	gets, hits, puts   atomic.Int64
	getNanos, putNanos atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	v, ok := s.DiskStore.Get(key)
	d := time.Since(t0)
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	s.getNanos.Add(int64(d))
	if s.tr != nil {
		start := t0.Sub(s.tr.epoch)
		s.tr.add(span{Name: "store.get", Key: key, Start: start, End: start + d})
	}
	return v, ok
}

func (s *timedStore) Put(key string, val []byte) {
	t0 := time.Now()
	s.DiskStore.Put(key, val)
	d := time.Since(t0)
	s.puts.Add(1)
	s.putNanos.Add(int64(d))
	if s.tr != nil {
		start := t0.Sub(s.tr.epoch)
		s.tr.add(span{Name: "store.put", Key: key, Start: start, End: start + d})
	}
}

// link assigns parents. Router and worker spans are joined to client ops
// through the fingerprint keys in each op's answers, because the router
// does not forward request IDs; store spans join the worker span that
// served the same key around them. Every join also requires the child's
// interval to lie inside the parent's.
func link(spans []span) {
	var clients, routers []int
	workersByKey := map[string][]int{}
	for i, s := range spans {
		switch s.Name {
		case "client":
			clients = append(clients, i)
		case "router":
			routers = append(routers, i)
		case "worker":
			workersByKey[s.Key] = append(workersByKey[s.Key], i)
		}
	}
	clientByKey := map[string][]int{}
	for _, c := range clients {
		for _, k := range spans[c].Keys {
			clientByKey[k] = append(clientByKey[k], c)
		}
	}
	// Each router call lies inside the client op that issued it.
	routerOf := map[int]int{} // client index -> router index
	for _, r := range routers {
		for _, c := range clients {
			if spans[c].contains(spans[r]) {
				spans[r].Parent = spans[c].ID
				routerOf[c] = r
				break
			}
		}
	}
	for key, ws := range workersByKey {
		for _, w := range ws {
			for _, c := range clientByKey[key] {
				if !spans[c].contains(spans[w]) {
					continue
				}
				parent := c
				if r, ok := routerOf[c]; ok && spans[r].contains(spans[w]) {
					parent = r
				}
				spans[w].Parent = spans[parent].ID
				break
			}
		}
	}
	for i, s := range spans {
		if !strings.HasPrefix(s.Name, "store.") {
			continue
		}
		for _, w := range workersByKey[s.Key] {
			if spans[w].contains(s) {
				spans[i].Parent = spans[w].ID
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		default:
			curHi = max(curHi, x[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as NDJSON to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape sums, over all label sets, the samples of each named family in
// a Prometheus text exposition served at url.
func scrape(client *http.Client, url string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseExposition(resp.Body, names...)
}

func parseExposition(r io.Reader, names ...string) (map[string]float64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			name = line[:i]
			_, rest, ok = strings.Cut(line[strings.LastIndexByte(line, '}')+1:], " ")
		}
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, err
		}
		out[name] += v
	}
	return out, sc.Err()
}
