package session

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
)

// DefaultName is the session every request without a ?session=
// parameter targets. It always exists, cannot be removed, and — when
// the registry is durable — keeps the data-directory root as its
// namespace, so a pre-multi-tenancy data directory recovers into it
// unchanged.
const DefaultName = "default"

// ErrUnknownSession is returned by Get and Remove for a name the
// registry does not hold (the server maps it to HTTP 404); test with
// errors.Is.
var ErrUnknownSession = errors.New("unknown session")

// ErrSessionExists is returned by Create for a name already in use.
var ErrSessionExists = errors.New("session already exists")

// ErrTooManySessions is returned by Create once MaxSessions live
// sessions exist.
var ErrTooManySessions = errors.New("session limit reached")

// graphFile is the road network persisted inside a named session's
// namespace, so boot can recover the session without the client
// re-supplying its graph.
const graphFile = "network.csv"

// nameRE constrains session names to path- and label-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// Options parameterizes a Registry.
type Options struct {
	// Graph is the default session's road network. Required.
	Graph *roadnet.Graph
	// Session is the per-session configuration template: every session
	// gets a copy, with CacheEntries/Budget/Label/Persist filled in by
	// the registry. Session.Fault applies to the default session and to
	// any created session without its own injector.
	Session Config
	// CacheEntries sizes the distance-cache budget shared by all
	// sessions (each session's cache can use the whole budget, but the
	// cross-session sum never exceeds it): 0 selects the default
	// budget, negative disables caches entirely.
	CacheEntries int
	// MaxSessions caps live sessions, the default included. Zero
	// selects 16. It also caps how many sessions ever get their own
	// metric label: later ones, churned tenants included, aggregate
	// into session="other" (see obs.LabelCap).
	MaxSessions int
	// Persist makes sessions durable: Dir is the data-directory root —
	// the default session recovers from the root itself, named sessions
	// from sessions/<name> beneath it, and Open recovers every
	// namespace found on boot. Nil keeps all sessions in-memory.
	Persist *persist.Options
}

// Registry is the named-session table behind the server's ?session=
// routing. Get is the hot path (read-locked); Create and Remove are
// rare and serialized.
type Registry struct {
	opts   Options
	budget *distcache.Budget
	labels *obs.LabelCap

	// createMu serializes Create/Remove (which do filesystem work)
	// without blocking Get.
	createMu sync.Mutex

	mu       sync.RWMutex
	sessions map[string]*Session
	closed   bool
}

// NewRegistry creates a registry holding the default session and, when
// durable, recovers every named session namespace found under the data
// root (each with the road network persisted at creation).
func NewRegistry(opts Options) (*Registry, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("session: registry requires a graph")
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 16
	}
	r := &Registry{
		opts:     opts,
		labels:   obs.NewLabelCap("session", opts.MaxSessions),
		sessions: make(map[string]*Session),
	}
	if opts.CacheEntries >= 0 {
		r.budget = distcache.NewBudget(opts.CacheEntries)
	}
	def, err := r.open(DefaultName, opts.Graph, nil, r.namespace(DefaultName))
	if err != nil {
		return nil, err
	}
	r.sessions[DefaultName] = def
	if opts.Persist != nil {
		names, err := persist.ListNamespaces(opts.Persist.Dir)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("session: list namespaces: %w", err)
		}
		for _, name := range names {
			dir := persist.Namespace(opts.Persist.Dir, name)
			g, err := readGraph(filepath.Join(dir, graphFile))
			if errors.Is(err, os.ErrNotExist) {
				// Debris from an interrupted create (the graph is written
				// before the store opens): nothing was ever acknowledged
				// under this name, so skip it.
				continue
			}
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("session %q: %w", name, err)
			}
			sess, err := r.open(name, g, nil, dir)
			if err != nil {
				r.Close()
				return nil, err
			}
			r.sessions[name] = sess
		}
	}
	return r, nil
}

// namespace resolves a session's data directory; "" when the registry
// is in-memory.
func (r *Registry) namespace(name string) string {
	if r.opts.Persist == nil {
		return ""
	}
	if name == DefaultName {
		return r.opts.Persist.Dir
	}
	return persist.Namespace(r.opts.Persist.Dir, name)
}

// open builds one session from the template. dir == "" keeps it
// in-memory; inj overrides the template injector when non-nil.
func (r *Registry) open(name string, g *roadnet.Graph, inj *fault.Injector, dir string) (*Session, error) {
	cfg := r.opts.Session
	cfg.CacheEntries = r.opts.CacheEntries
	cfg.Budget = r.budget
	cfg.Label = r.labels.Label(name)
	if inj != nil {
		cfg.Fault = inj
	}
	if dir != "" {
		p := *r.opts.Persist
		p.Dir = dir
		cfg.Persist = &p
	} else {
		cfg.Persist = nil
	}
	return New(name, g, cfg)
}

// Get resolves a session by name; "" targets the default session.
// A miss wraps ErrUnknownSession and quotes the name.
func (r *Registry) Get(name string) (*Session, error) {
	if name == "" {
		name = DefaultName
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, name)
	}
	return s, nil
}

// Default returns the default session.
func (r *Registry) Default() *Session {
	s, _ := r.Get(DefaultName)
	return s
}

// CreateOptions refine Create.
type CreateOptions struct {
	// Fault gives the session its own injector instead of the
	// template's, isolating one tenant's fault storm from the rest.
	Fault *fault.Injector
}

// Create adds a named session over its own graph. When the registry is
// durable the session gets a fresh namespace with the graph persisted
// inside, so a restart recovers it without the client resupplying
// anything.
func (r *Registry) Create(name string, g *roadnet.Graph, opts CreateOptions) (*Session, error) {
	if !nameRE.MatchString(name) || name == DefaultName {
		return nil, fmt.Errorf("session: invalid name %q", name)
	}
	if g == nil {
		return nil, fmt.Errorf("session: create %q: graph required", name)
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	r.mu.RLock()
	_, exists := r.sessions[name]
	n := len(r.sessions)
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if exists {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, name)
	}
	if n >= r.opts.MaxSessions {
		return nil, fmt.Errorf("%w (%d live)", ErrTooManySessions, n)
	}
	dir := r.namespace(name)
	if dir != "" {
		if err := writeGraph(dir, g); err != nil {
			return nil, fmt.Errorf("session %q: persist graph: %w", name, err)
		}
	}
	sess, err := r.open(name, g, opts.Fault, dir)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sessions[name] = sess
	r.mu.Unlock()
	return sess, nil
}

// Remove closes and unregisters a named session; its namespace (if
// any) stays on disk and will be recovered by the next boot. The
// default session cannot be removed.
func (r *Registry) Remove(name string) error {
	if name == DefaultName || name == "" {
		return fmt.Errorf("session: cannot remove the default session")
	}
	r.createMu.Lock()
	defer r.createMu.Unlock()
	r.mu.Lock()
	sess, ok := r.sessions[name]
	if ok {
		delete(r.sessions, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownSession, name)
	}
	return sess.Close()
}

// List returns the live sessions, default first, the rest sorted by
// name.
func (r *Registry) List() []*Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Session, 0, len(r.sessions))
	for name, s := range r.sessions {
		if name == DefaultName {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	if def, ok := r.sessions[DefaultName]; ok {
		out = append([]*Session{def}, out...)
	}
	return out
}

// Len returns the live session count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Close closes every session (final checkpoints, WAL flush) and
// rejects further Creates. Idempotent; returns the first error.
func (r *Registry) Close() error {
	r.mu.Lock()
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	var err error
	for _, s := range sessions {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Abort kills every session's durability layer without flushing — the
// process-internal kill -9, for crash-recovery tests.
func (r *Registry) Abort() {
	r.mu.Lock()
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Abort()
	}
}

// writeGraph makes dir and persists g at dir/network.csv, both through
// persist's durable helpers: a crash mid-create leaves skippable debris,
// never a torn graph, and a create that returned survives a crash.
func writeGraph(dir string, g *roadnet.Graph) error {
	if err := persist.MkdirAll(dir); err != nil {
		return err
	}
	return persist.WriteFileAtomic(filepath.Join(dir, graphFile), func(w io.Writer) error {
		return roadnet.Write(w, g)
	})
}

// readGraph loads a persisted network; os.ErrNotExist passes through
// for the caller's debris check.
func readGraph(path string) (*roadnet.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := roadnet.Read(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return g, nil
}
