// Package cliflag centralizes the flag conventions shared by the cmd/
// binaries. Every command that takes a seed, a worker count, a JSON
// switch or a verbosity switch registers it through these helpers, so
// the flags are spelled, defaulted and documented identically across
// the whole tool set (a binary adopts the subset that applies to it).
package cliflag

import (
	"flag"

	"gpluscircles/internal/experiments"
)

// Seed registers the shared -seed flag. Everything random in a binary
// must derive deterministically from this one value; 1 is the project's
// canonical default seed.
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "deterministic seed driving every generator and sampler")
}

// Workers registers the shared -workers flag bounding a binary's worker
// pools. 0 selects GOMAXPROCS; 1 forces the serial path.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
}

// JSON registers the shared -json flag switching a binary's primary
// output from human-readable text to machine-readable JSON.
func JSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit machine-readable JSON instead of human-readable text")
}

// Verbose registers the shared -v flag: extra progress and diagnostics
// on stderr, never a change to stdout bytes.
func Verbose(fs *flag.FlagSet) *bool {
	return fs.Bool("v", false, "log progress and diagnostics to stderr")
}

// Shards registers the shared -shards flag: the scheduling granularity
// of sharded generators. Output never depends on it; 0 derives one
// shard per worker.
func Shards(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "work-unit batches for sharded generation (0 = one per worker; never changes output)")
}

// Vertices registers the shared -vertices flag overriding a generator's
// vertex count directly; 0 keeps the config/scale-derived default.
func Vertices(fs *flag.FlagSet) *int64 {
	return fs.Int64("vertices", 0, "override the generated vertex count (0 = scale-derived default)")
}

// experimentsValue adapts an experiments.Set to the flag.Value
// protocol: parsing validates every name against the registry, so an
// unknown or concluded experiment fails at flag-parse time with the
// registry's own explanation instead of being silently ignored.
type experimentsValue struct{ set *experiments.Set }

func (v experimentsValue) String() string {
	if v.set == nil || *v.set == nil {
		return ""
	}
	return (*v.set).String()
}

func (v experimentsValue) Set(spec string) error {
	s, err := experiments.ParseSet(spec)
	if err != nil {
		return err
	}
	*v.set = s
	return nil
}

// Experiments registers the shared -experiments flag: the opt-in
// switch for the registered experiments a run may enable. The zero
// value is the empty set — every experimental surface stays off unless
// named here.
func Experiments(fs *flag.FlagSet) *experiments.Set {
	set := make(experiments.Set)
	fs.Var(experimentsValue{&set}, "experiments",
		"comma-separated experiments to enable for this run (experimental surfaces carry no compatibility promise)")
	return &set
}

// Addr registers the shared -addr flag used by the serving binaries
// (circled listens on it, circleload targets it). def supplies the
// binary-appropriate default, e.g. ":8779" for a listener or
// "http://127.0.0.1:8779" for a client.
func Addr(fs *flag.FlagSet, def string) *string {
	return fs.String("addr", def, "service address")
}

// NCPSeeds registers the shared -ncp-seeds flag: how many PPR seed
// vertices the network-community-profile sweep probes. 32 matches the
// internal/ncp default.
func NCPSeeds(fs *flag.FlagSet) *int {
	return fs.Int("ncp-seeds", 32, "PPR seed vertices probed by the NCP sweep (degree-stratified)")
}

// NCPEps registers the shared -ncp-eps flag: the approximation
// tolerance of the PPR push underlying the NCP sweep. Smaller values
// push more mass and cost more per seed; 1e-4 matches the internal/ncp
// default.
func NCPEps(fs *flag.FlagSet) *float64 {
	return fs.Float64("ncp-eps", 1e-4, "PPR push tolerance for the NCP sweep (residual bound per unit degree)")
}
