package transport

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Factory constructs a fresh, uninitialized module instance from its checked
// parameters, or reports why it cannot. Each context gets its own instances,
// so factories must not share mutable state between the modules they create
// (shared fabrics, like the in-process exchange, are fine — they are the
// medium, not the module).
type Factory func(v Values) (Module, error)

type method struct {
	params []Param
	new    Factory
}

// Registry maps method names to the parameters they declare and their module
// factories. It plays the role of the paper's "default set of modules defined
// when the Nexus library is built" plus dynamic loading: methods can be
// registered at init time or at runtime before contexts are created.
type Registry struct {
	mu      sync.RWMutex
	methods map[string]method
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{methods: make(map[string]method)}
}

// Register adds a method with the parameters its factory reads, replacing any
// previous registration for that name.
func (r *Registry) Register(name string, params []Param, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.methods[name] = method{params, f}
}

// Unregister removes the named method, reporting whether it was present.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.methods[name]
	delete(r.methods, name)
	return ok
}

// New instantiates a module for the named method from params checked by
// Parse.
func (r *Registry) New(name string, params Params) (Module, error) {
	r.mu.RLock()
	m, ok := r.methods[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no module registered for method %q", name)
	}
	v, err := r.Parse(name, params)
	if err != nil {
		return nil, err
	}
	return m.new(v)
}

// Parse checks p against the parameters the named method declares: each
// must hold a well-formed value within its bounds. Since one set may
// configure several methods (secure hands its set to its inner method), a
// key that another registered method declares passes untouched, and only a
// key that none declares is an error. One error names every fault.
func (r *Registry) Parse(name string, p Params) (Values, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := Values{Params: p, vals: make(map[string]any)}
	var bad []string
	for _, d := range r.methods[name].params {
		v.vals[d.Key] = d.Default
		if s, ok := p[d.Key]; ok {
			x, err := d.parse(s)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s=%q: %v", d.Key, s, err))
			}
			v.vals[d.Key] = x
		}
	}
	for k, s := range p {
		if !r.declaredLocked(k) {
			bad = append(bad, fmt.Sprintf("%s=%q: no registered method declares it", k, s))
		}
	}
	if bad == nil {
		return v, nil
	}
	sort.Strings(bad)
	return Values{}, fmt.Errorf("%w: %s: %s", ErrBadParam, name, strings.Join(bad, "; "))
}

func (r *Registry) declaredLocked(key string) bool {
	for _, m := range r.methods {
		if slices.ContainsFunc(m.params, func(d Param) bool { return d.Key == key }) {
			return true
		}
	}
	return false
}

// Params returns the parameters the named method declares.
func (r *Registry) Params(name string) []Param {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.methods[name].params
}

// Has reports whether the named method is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.methods[name]
	return ok
}

// Names lists the registered method names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.methods))
	for n := range r.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default is the process-wide registry that standard modules register
// themselves with from their init functions.
var Default = NewRegistry()

// Register adds a method to the default registry.
func Register(name string, params []Param, f Factory) { Default.Register(name, params, f) }
