package main

import (
	"cmp"
	"slices"
	"sync"
)

// span is one timed interval of one request. Spans stay in memory while a
// run measures and are written out when it ends. The client span of a
// request is the root; the server's handler span names it as parent, and
// the handler's query spans name the handler. Times are Unix nanoseconds,
// comparable across the two processes on one host.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	RID    uint64 `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Span kinds: a span's ID is its request id and kind, so both processes
// can name each other's spans without sharing state. Query spans take
// kindQuery+i for the request's i-th query.
const (
	kindClient  = 0
	kindHandler = 1
	kindQuery   = 2
	kindBits    = 4
)

func spanID(rid, kind uint64) uint64 { return rid<<kindBits | kind }

// recorder collects spans from the worker goroutines.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.a < v.b {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}
