package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds a policy instance from construction parameters.
type Factory func(Params) Policy

// entry is one registered policy: its canonical name and factory.
type entry struct {
	name string
	f    Factory
}

var (
	regMu   sync.RWMutex
	entries = map[string]entry{} // normalized name -> entry
)

// normalize makes lookup case-insensitive and tolerant of the usual
// flag spellings: "TLs-LAS", "tls-las" and "las" all resolve the same
// policy, and "static-rate"/"staticrate" match "StaticRate".
func normalize(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.ReplaceAll(n, "_", "-")
	n = strings.TrimPrefix(n, "tls-")
	n = strings.ReplaceAll(n, "-", "")
	return n
}

// Register adds a policy factory under its canonical name. Registering
// a duplicate (after normalization) panics: two policies answering to
// one flag value is a programming error.
func Register(name string, f Factory) {
	key := normalize(name)
	if key == "" || f == nil {
		panic("policy: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := entries[key]; dup {
		panic(fmt.Sprintf("policy: %q already registered", name))
	}
	entries[key] = entry{name, f}
}

// Known reports whether the name resolves to a registered policy.
func Known(name string) bool { return Canonical(name) != "" }

// Canonical returns the registered name a spelling resolves to ("rr"
// and "tls-rr" both give "TLs-RR"), or "" when none does.
func Canonical(name string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return entries[normalize(name)].name
}

// New builds the named policy. Unknown names return an error listing
// what is registered.
func New(name string, p Params) (Policy, error) {
	regMu.RLock()
	e, ok := entries[normalize(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return e.f(p), nil
}

// Names returns every registered policy's canonical name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}
