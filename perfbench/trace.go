package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Times are
// nanoseconds since the tracer's base instant; parent is 0 for a root
// span.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
}

// Dur is the span's wall time in nanoseconds.
func (s span) Dur() int64 { return s.End - s.Start }

// maxSpans caps the spans one tracer keeps; spans past the cap are
// counted as dropped instead of stored.
const maxSpans = 1 << 20

// tracer keeps every span of a traced run in memory. Spans are written
// into single-goroutine buffers (one per search, job or service client)
// and folded into the tracer when the buffer is closed, so the hot path
// takes no lock.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	nextBuf int64
	dropped int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buffer opens a span buffer. Span ids are unique across buffers: the
// buffer number fills the high 32 bits.
func (t *tracer) buffer() *spanBuf {
	t.mu.Lock()
	t.nextBuf++
	id := t.nextBuf << 32
	t.mu.Unlock()
	return &spanBuf{tr: t, ids: id}
}

// Spans returns the spans kept so far.
func (t *tracer) Spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Dropped is the number of spans discarded past maxSpans.
func (t *tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanBuf collects the spans of one single-threaded activity.
type spanBuf struct {
	tr    *tracer
	ids   int64
	spans []span
}

// now is the current time on the tracer's clock.
func (b *spanBuf) now() int64 { return int64(time.Since(b.tr.base)) }

// newID reserves a span id, so children can name their parent before
// the parent span ends.
func (b *spanBuf) newID() int64 {
	b.ids++
	return b.ids
}

// add records a finished span under a reserved id.
func (b *spanBuf) add(id, parent int64, name string, start, end int64) {
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
}

// leaf records a finished span that has no children and returns its
// id.
func (b *spanBuf) leaf(parent int64, name string, start, end int64) int64 {
	id := b.newID()
	b.add(id, parent, name, start, end)
	return id
}

// close folds the buffer into the tracer.
func (b *spanBuf) close() {
	t := b.tr
	t.mu.Lock()
	room := maxSpans - len(t.spans)
	if room < 0 {
		room = 0
	}
	if len(b.spans) > room {
		t.dropped += int64(len(b.spans) - room)
		b.spans = b.spans[:room]
	}
	t.spans = append(t.spans, b.spans...)
	t.mu.Unlock()
	b.spans = nil
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int64
	Total int64 // summed wall time, ns
	Self  int64 // summed self time (wall minus direct children), ns
}

// MeanNs is the mean wall time per span.
func (s spanStat) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count)
}

// selfTimes derives per-name totals and self times from a span tree:
// a span's self time is its wall time minus the part of that interval
// its direct children cover (children running in parallel on other
// goroutines count once). Children whose parent was not kept count
// only toward their own name.
func selfTimes(spans []span) map[string]*spanStat {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := map[int64][]span{}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			c := s
			c.Start = max(c.Start, p.Start)
			c.End = min(c.End, p.End)
			if c.End > c.Start {
				children[s.Parent] = append(children[s.Parent], c)
			}
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur()
		st.Self += s.Dur() - coverage(children[s.ID])
	}
	return out
}

// coverage is the length of the union of the given spans' intervals:
// the wall time during which at least one of them was running.
func coverage(spans []span) int64 {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes every span as one tab-separated line (id, parent,
// name, start_ns, end_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
