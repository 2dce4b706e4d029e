package core

import (
	"fmt"
	"sort"
	"strings"
)

// Params carries a matcher's configuration. Values are numeric or string;
// getters supply defaults so matchers stay usable with empty Params.
type Params map[string]any

// Float returns the named parameter as float64, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	v, ok := p[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	default:
		return def
	}
}

// Int returns the named parameter as int, or def when absent.
func (p Params) Int(name string, def int) int {
	v, ok := p[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	default:
		return def
	}
}

// String returns the named parameter as string, or def when absent.
func (p Params) String(name, def string) string {
	if v, ok := p[name]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// Clone returns a shallow copy.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Key renders the params deterministically, for result bookkeeping.
func (p Params) Key() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, p[k]))
	}
	return strings.Join(parts, ",")
}

// Factory builds a matcher from parameters.
type Factory func(Params) (Matcher, error)

// Registry maps method names to factories.
type Registry struct {
	factories map[string]Factory
	caps      map[string][]Capability
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		factories: make(map[string]Factory),
		caps:      make(map[string][]Capability),
	}
}

// Register adds a factory under a unique name with its Table-I capability
// tags; duplicate registration and a nil factory are errors.
func (r *Registry) Register(name string, f Factory, caps ...Capability) error {
	if name == "" {
		return fmt.Errorf("core: empty matcher name")
	}
	if f == nil {
		return fmt.Errorf("core: matcher %q has a nil factory", name)
	}
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("core: matcher %q already registered", name)
	}
	r.factories[name] = f
	r.caps[name] = caps
	return nil
}

// New instantiates a registered matcher with the given params.
func (r *Registry) New(name string, p Params) (Matcher, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown matcher %q (have %v)", name, r.Names())
	}
	return f(p)
}

// Names lists the registered method names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Capabilities returns the Table-I capability tags of a method.
func (r *Registry) Capabilities(name string) []Capability { return r.caps[name] }

// Capability is a match type from Table I of the paper.
type Capability int

// Match types covered by matchers (paper Table I).
const (
	CapAttributeOverlap Capability = iota
	CapValueOverlap
	CapSemanticOverlap
	CapDataType
	CapDistribution
	CapEmbeddings
)

// String names the capability as in Table I.
func (c Capability) String() string {
	switch c {
	case CapAttributeOverlap:
		return "Attribute Overlap"
	case CapValueOverlap:
		return "Value Overlap"
	case CapSemanticOverlap:
		return "Semantic Overlap"
	case CapDataType:
		return "Data Type"
	case CapDistribution:
		return "Distribution"
	case CapEmbeddings:
		return "Embeddings"
	default:
		return "Unknown"
	}
}

// AllCapabilities lists the capabilities in Table-I column order.
func AllCapabilities() []Capability {
	return []Capability{CapAttributeOverlap, CapValueOverlap, CapSemanticOverlap,
		CapDataType, CapDistribution, CapEmbeddings}
}
