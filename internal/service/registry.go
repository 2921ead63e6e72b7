// Package service is the production serving layer of the Egeria
// reproduction: a registry of named advisors (one per guide), a versioned
// JSON API over Stage-II retrieval, a sharded LRU query cache with
// single-flight deduplication, and an admission-control front (bounded
// concurrency, per-request timeouts, overload rejection, a log of failed
// and slow requests, graceful draining).
//
// The paper ships Egeria's output as a served web artifact (Figs. 6-7); this
// package is the layer that makes that artifact hold up under real traffic:
// the same advisor lookup becomes cheap (cache), bounded (admission), and
// observable (/statsz).
package service

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// Registry holds the advisors a Service exposes, keyed by name ("cuda").
// It is safe for concurrent use; reads take a shared lock so request
// handling never blocks behind a rebuild — Replace swaps a fully built
// advisor in atomically.
type Registry struct {
	mu       sync.RWMutex
	advisors map[string]*core.Advisor
	logf     func(format string, args ...any) // hot-swap log; nil = silent
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{advisors: make(map[string]*core.Advisor)}
}

// SetLogf installs the sink for hot-swap log lines
// ("reloaded cuda: 3 added, 1 removed").
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	r.mu.Lock()
	r.logf = logf
	r.mu.Unlock()
}

// Add registers an advisor under name, overwriting any previous entry
// without diffing (use Replace for the logged hot-swap path).
func (r *Registry) Add(name string, a *core.Advisor) {
	a.SetName(name)
	r.mu.Lock()
	r.advisors[name] = a
	r.mu.Unlock()
}

// Get returns the advisor registered under name.
func (r *Registry) Get(name string) (*core.Advisor, bool) {
	r.mu.RLock()
	a, ok := r.advisors[name]
	r.mu.RUnlock()
	return a, ok
}

// Names returns the registered advisor names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.advisors))
	for n := range r.advisors {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered advisors.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.advisors)
}

// Replace hot-swaps the advisor under name with next and returns the rule
// diff against the previous version (zero diff when the name was new). The
// swap is atomic: concurrent Gets see either the old or the new advisor,
// never a partially built one. A registered log sink receives the
// "reloaded cuda: 3 added, 1 removed" line.
func (r *Registry) Replace(name string, next *core.Advisor) core.RulesDiff {
	next.SetName(name)
	r.mu.Lock()
	prev := r.advisors[name]
	r.advisors[name] = next
	logf := r.logf
	r.mu.Unlock()
	var diff core.RulesDiff
	if prev != nil {
		diff = core.DiffRules(prev, next)
		if logf != nil {
			logf("reloaded %s: %s", name, diff.Short())
		}
	} else if logf != nil {
		logf("loaded %s: %d rules", name, len(next.Rules()))
	}
	return diff
}
