package qdisc

import (
	"fmt"
	"sort"
)

// ClassID identifies a class or band inside a classful qdisc, analogous
// to tc's major:minor handles. Band/class numbering starts at 0.
type ClassID int

// NoClass is returned by classifiers when no filter matches.
const NoClass ClassID = -1

// Match is a predicate over a chunk's source port, the one key a
// TensorLights filter matches on (the paper identifies a job by its
// PS's TCP port). SrcPort AnyValue matches everything.
type Match struct {
	SrcPort int
}

// AnyValue is the wildcard for Match fields.
const AnyValue = -1

// MatchAll returns a Match with every field wild.
func MatchAll() Match {
	return Match{SrcPort: AnyValue}
}

// MatchSrcPort returns a Match on the sender port.
func MatchSrcPort(port int) Match {
	return Match{SrcPort: port}
}

// Matches reports whether the chunk satisfies every non-wild field.
func (m Match) Matches(c *Chunk) bool {
	return m.SrcPort == AnyValue || m.SrcPort == c.SrcPort
}

// String renders the match in tc-ish syntax.
func (m Match) String() string {
	if m.SrcPort == AnyValue {
		return "match all"
	}
	return fmt.Sprintf("match sport %d", m.SrcPort)
}

// Filter binds a Match to a target class with a precedence. Lower Pref
// wins, like tc filter preference values; ties break by insertion order.
type Filter struct {
	Pref   int
	Match  Match
	Target ClassID
	seq    int
}

// Classifier is an ordered filter chain with a default class.
type Classifier struct {
	filters []Filter
	def     ClassID
	nextSeq int
}

// NewClassifier returns a classifier that sends unmatched chunks to def.
func NewClassifier(def ClassID) *Classifier {
	return &Classifier{def: def}
}

// Default returns the class used when no filter matches.
func (cl *Classifier) Default() ClassID { return cl.def }

// Add installs a filter. Filters are evaluated in (Pref, insertion)
// order; the first match wins.
func (cl *Classifier) Add(f Filter) {
	f.seq = cl.nextSeq
	cl.nextSeq++
	cl.filters = append(cl.filters, f)
	sort.SliceStable(cl.filters, func(i, j int) bool {
		if cl.filters[i].Pref != cl.filters[j].Pref {
			return cl.filters[i].Pref < cl.filters[j].Pref
		}
		return cl.filters[i].seq < cl.filters[j].seq
	})
}

// Clear removes every filter.
func (cl *Classifier) Clear() { cl.filters = nil }

// Len returns the number of installed filters.
func (cl *Classifier) Len() int { return len(cl.filters) }

// Filters returns a copy of the filter chain in evaluation order.
func (cl *Classifier) Filters() []Filter {
	out := make([]Filter, len(cl.filters))
	copy(out, cl.filters)
	return out
}

// Classify returns the target class for the chunk.
func (cl *Classifier) Classify(c *Chunk) ClassID {
	for _, f := range cl.filters {
		if f.Match.Matches(c) {
			return f.Target
		}
	}
	return cl.def
}
