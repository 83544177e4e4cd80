package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of work in a span tree: it has a name, a
// start and end time, optional key=value annotations, a parent link,
// and ordered children. The NEAT pipeline emits one tree per run with
// a child per phase, giving the paper's Fig 7-style per-phase
// breakdown for any dataset.
//
// A nil *Span is the disabled tracer: every method is a no-op and
// StartChild returns nil, so call sites never branch on "is tracing
// on". A span's own methods are safe for concurrent use (children may
// be attached from worker goroutines), but a span should be ended by
// the goroutine that started it.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	parent   *Span
	children []*Span
	labels   []SpanLabel
}

// SpanLabel is one annotation on a span.
type SpanLabel struct {
	Key   string
	Value string
}

// StartSpan starts a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts a child span under s. Nil-safe: returns nil when s
// is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), parent: s}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddChild attaches a child whose interval was measured externally
// (e.g. sub-phase durations reported by a stats struct after the
// fact). Nil-safe.
func (s *Span) AddChild(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, parent: s}
	c.end = start.Add(d)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Adopt grafts an independently started span tree under s as a child,
// re-parenting its root. The streaming clusterer uses it to collect
// the per-batch pipeline run and the standing-set merge — each a root
// tree produced by the plan engine — under one ingest span.
// Nil-safe on both sides: adopting nil, or onto nil, is a no-op.
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	child.mu.Lock()
	child.parent = s
	child.mu.Unlock()
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End marks the span finished. The first call wins; later calls (and
// calls on nil) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Annotate attaches a key=value label; value is rendered with
// fmt.Sprint. Nil-safe.
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.labels = append(s.labels, SpanLabel{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
}

// Name returns the span name; "" on nil.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the start time; the zero time on nil.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Parent returns the parent span; nil for roots and on nil.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Duration returns end-start, or the running duration if the span has
// not ended; 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Children returns a copy of the child list in attachment order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Labels returns a copy of the annotations in attachment order.
func (s *Span) Labels() []SpanLabel {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanLabel, len(s.labels))
	copy(out, s.labels)
	return out
}

// Find returns the first span named name in a pre-order walk of the
// tree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// WriteTree renders the span tree as an indented breakdown with
// per-span wall times, each child's share of the root, and
// annotations:
//
//	neat.run  14.2ms
//	  phase1.partition  8.1ms (57%)  fragments=482
//	  ...
//
// Nil-safe: a nil span writes a placeholder line.
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		fmt.Fprintln(w, "(no trace recorded)")
		return
	}
	total := s.Duration()
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		d := sp.Duration()
		fmt.Fprintf(w, "%s  %s", sp.name, d.Round(time.Microsecond))
		if depth > 0 && total > 0 {
			fmt.Fprintf(w, " (%.0f%%)", 100*float64(d)/float64(total))
		}
		for i, l := range sp.Labels() {
			sep := " "
			if i == 0 {
				sep = "  "
			}
			fmt.Fprintf(w, "%s%s=%s", sep, l.Key, l.Value)
		}
		io.WriteString(w, "\n")
		for _, c := range sp.Children() {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
}

// LabelMap flattens the annotations into a map (last write per key
// wins), a convenience for tests and tools.
func (s *Span) LabelMap() map[string]string {
	labels := s.Labels()
	if labels == nil {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// SpanNames returns the sorted set of names in the tree rooted at s,
// a convenience for tests.
func SpanNames(s *Span) []string {
	seen := map[string]struct{}{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if sp == nil {
			return
		}
		seen[sp.Name()] = struct{}{}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(s)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
