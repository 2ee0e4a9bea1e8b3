// Package experiments is the registry of the project's experimental
// surfaces. Heavy features (the NCP sweep, triangle cohesion) need to
// land incrementally without freezing their APIs, so each one registers
// here under a short name and stays opt-in until it graduates: a
// surface behind an experiment carries no compatibility promise and may
// change shape or disappear between commits.
//
// Users opt in per run with the shared -experiments flag
// (internal/cliflag), e.g.
//
//	circlebench -experiment cohesion -experiments=triangle-cohesion
//
// and a serving process lists its registry — with per-run enablement —
// at GET /v1/experiments.
//
// The lifecycle is: Register (current, opt-in) → graduate (delete the
// registration, drop the gate calls) or retire (move the name to the
// concluded table with a pointer at the replacement). GetCurrent
// distinguishes the three outcomes with typed errors: UnavailableError
// for names that were never registered, DefunctError for retired ones.
//
// The gate is a runtime one: every experimental surface checks
// Set.Require at its entry point. No package is gated as a whole.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one registered experimental surface.
type Experiment struct {
	// Name is the registry key users pass to -experiments.
	Name string
	// Doc is the one-line description shown by listings.
	Doc string
}

// UnavailableError is returned when a requested experiment is not
// registered as current: either the name is unknown outright, or it is
// known but the run did not opt in with -experiments.
type UnavailableError struct {
	// Name is the requested experiment.
	Name string
	// Unknown marks a name absent from the registry altogether, as
	// opposed to a registered experiment the run has not enabled.
	Unknown bool
}

func (e UnavailableError) Error() string {
	if e.Unknown {
		return fmt.Sprintf("no current experiment is named %q", e.Name)
	}
	return fmt.Sprintf("experiment %q is not enabled for this run: opt in with -experiments=%s (experimental surfaces carry no compatibility promise; see DESIGN.md §10)", e.Name, e.Name)
}

// DefunctError is returned when a requested experiment is recognized as
// retired: the registry remembers the name so users get a pointer at the
// replacement instead of an unknown-name error.
type DefunctError struct {
	msg string
}

func (e DefunctError) Error() string { return e.msg }

// registry state. Registration happens in this package's var block
// (registry.go) and in tests; there is deliberately no mutex — the
// tables are fixed before main starts.
var (
	current   = make(map[string]Experiment)
	concluded = make(map[string]string)
)

// Register adds a current experiment to the registry and returns it.
// It panics on a duplicate or concluded name: registration is static
// configuration, and a clash is a programming error.
func Register(name, doc string) Experiment {
	if _, ok := current[name]; ok {
		panic(fmt.Sprintf("experiments: %q registered twice", name))
	}
	if _, ok := concluded[name]; ok {
		panic(fmt.Sprintf("experiments: %q is concluded and cannot be re-registered", name))
	}
	exp := Experiment{Name: name, Doc: doc}
	current[name] = exp
	return exp
}

// Conclude records a retired experiment name with the message GetCurrent
// should return for it (typically pointing at the replacement surface).
func Conclude(name, msg string) {
	if _, ok := current[name]; ok {
		panic(fmt.Sprintf("experiments: %q is current and cannot be concluded while registered", name))
	}
	concluded[name] = msg
}

// GetCurrent resolves a name to its current experiment. Unknown names
// return UnavailableError (Unknown=true); concluded names return
// DefunctError with the recorded retirement message.
func GetCurrent(name string) (Experiment, error) {
	if exp, ok := current[name]; ok {
		return exp, nil
	}
	if msg, ok := concluded[name]; ok {
		return Experiment{}, DefunctError{msg: msg}
	}
	return Experiment{}, UnavailableError{Name: name, Unknown: true}
}

// All returns every current experiment sorted by name.
func All() []Experiment {
	out := make([]Experiment, 0, len(current))
	for _, exp := range current {
		out = append(out, exp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Set is one run's enabled experiments, as parsed from -experiments.
type Set map[string]bool

// ParseSet parses the comma-separated -experiments flag value,
// validating every name against the registry so a typo (or a concluded
// experiment) fails loudly at flag time rather than silently disabling
// the surface the user asked for.
func ParseSet(spec string) (Set, error) {
	set := make(Set)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := GetCurrent(name); err != nil {
			return nil, err
		}
		set[name] = true
	}
	return set, nil
}

// Enabled reports whether the named experiment was opted into.
func (s Set) Enabled(name string) bool { return s[name] }

// Require returns nil when exp is enabled in the set, and a friendly
// UnavailableError telling the user how to opt in otherwise. Gated
// surfaces call this at their entry points.
func (s Set) Require(exp Experiment) error {
	if s.Enabled(exp.Name) {
		return nil
	}
	return UnavailableError{Name: exp.Name}
}

// String renders the set as the canonical sorted comma-separated flag
// value (empty for no experiments).
func (s Set) String() string {
	names := make([]string, 0, len(s))
	for name, on := range s {
		if on {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
