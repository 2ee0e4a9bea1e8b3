package synth

import (
	"fmt"
	"math/rand"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
)

// EvolveConfig parameterizes the temporal growth simulator modelling the
// Google+ creation phase studied by Gong et al. and Schiöberg et al.
// (paper Section II / IV-A2): users arrive over time (organically or
// invited by existing users), follow accounts with a mix of triadic
// closure (friend-of-friend) and popularity-driven attachment, and
// existing users keep adding links. The paper compares its static
// clustering-coefficient measurement against Gong et al.'s evolving one
// (0.32 at the very beginning, declining as the network grows); this
// simulator reproduces that trajectory.
type EvolveConfig struct {
	// Steps is the number of simulated days.
	Steps int
	// ArrivalsPerStep is the number of new users joining per day.
	ArrivalsPerStep int
	// InvitedFraction is the share of arrivals invited by an existing
	// user; invited users start by following their inviter's
	// neighbourhood (the viral-growth mechanism of the beta phase).
	InvitedFraction float64
	// FollowsPerArrival is the mean number of accounts a new user
	// follows on arrival.
	FollowsPerArrival float64
	// ActivityPerStep is the mean number of new follows per *existing*
	// user per day (ongoing activity).
	ActivityPerStep float64
	// TriadicClosure is the probability that a follow targets a
	// friend-of-friend (closing a triangle) rather than a global pick.
	TriadicClosure float64
	// Attachment mixes popularity-proportional (1.0) and uniform (0.0)
	// global target selection.
	Attachment float64
	// Reciprocity is the probability a follow is returned.
	Reciprocity float64
	// SeedUsers is the size of the initial fully connected seed
	// community (the field-trial population; Gong et al. observed the
	// highest clustering at the very beginning).
	SeedUsers int
	// Checkpoints is the number of evenly spaced snapshots to record.
	Checkpoints int
	// Seed drives the RNG.
	Seed int64
}

// DefaultEvolveConfig returns a laptop-scale creation-phase scenario.
func DefaultEvolveConfig() EvolveConfig {
	return EvolveConfig{
		Steps:             90,
		ArrivalsPerStep:   60,
		InvitedFraction:   0.55,
		FollowsPerArrival: 8,
		ActivityPerStep:   0.12,
		TriadicClosure:    0.45,
		Attachment:        0.7,
		Reciprocity:       0.25,
		SeedUsers:         30,
		Checkpoints:       12,
		Seed:              8,
	}
}

// Validate checks the configuration for consistency.
func (c EvolveConfig) Validate() error {
	switch {
	case c.Steps < 1:
		return fmt.Errorf("%w: Steps %d < 1", errBadConfig, c.Steps)
	case c.ArrivalsPerStep < 1:
		return fmt.Errorf("%w: ArrivalsPerStep %d < 1", errBadConfig, c.ArrivalsPerStep)
	case c.InvitedFraction < 0 || c.InvitedFraction > 1:
		return fmt.Errorf("%w: InvitedFraction %v outside [0,1]", errBadConfig, c.InvitedFraction)
	case c.TriadicClosure < 0 || c.TriadicClosure > 1:
		return fmt.Errorf("%w: TriadicClosure %v outside [0,1]", errBadConfig, c.TriadicClosure)
	case c.Attachment < 0 || c.Attachment > 1:
		return fmt.Errorf("%w: Attachment %v outside [0,1]", errBadConfig, c.Attachment)
	case c.Reciprocity < 0 || c.Reciprocity > 1:
		return fmt.Errorf("%w: Reciprocity %v outside [0,1]", errBadConfig, c.Reciprocity)
	case c.SeedUsers < 3:
		return fmt.Errorf("%w: SeedUsers %d < 3", errBadConfig, c.SeedUsers)
	case c.Checkpoints < 1:
		return fmt.Errorf("%w: Checkpoints %d < 1", errBadConfig, c.Checkpoints)
	}
	return nil
}

// Snapshot is the network state at one checkpoint.
type Snapshot struct {
	Step       int
	Vertices   int
	Edges      int64
	MeanDegree float64
	// Clustering is the mean local clustering coefficient over a sample
	// of vertices (undirected projection).
	Clustering float64
	// Reciprocity is the fraction of arcs with a reverse arc.
	Reciprocity float64
}

// Evolution is the simulator output: snapshots plus the final graph.
type Evolution struct {
	Snapshots []Snapshot
	Final     *graph.Graph
}

// evolveState is the mutable growth state.
type evolveState struct {
	out [][]int32
	in  [][]int32
	// edgeSet dedups arcs.
	edgeSet map[uint64]struct{}
	m       int64
}

func (st *evolveState) addEdge(u, v int32) bool {
	if u == v {
		return false
	}
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	if _, dup := st.edgeSet[k]; dup {
		return false
	}
	st.edgeSet[k] = struct{}{}
	st.out[u] = append(st.out[u], v)
	st.in[v] = append(st.in[v], u)
	st.m++
	return true
}

func (st *evolveState) addVertex() int32 {
	st.out = append(st.out, nil)
	st.in = append(st.in, nil)
	return int32(len(st.out) - 1)
}

// Evolve runs the creation-phase simulation.
func Evolve(cfg EvolveConfig) (*Evolution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	st := &evolveState{edgeSet: map[uint64]struct{}{}}
	// Seed clique: the initial field-trial community follows each other.
	for i := 0; i < cfg.SeedUsers; i++ {
		st.addVertex()
	}
	for i := int32(0); i < int32(cfg.SeedUsers); i++ {
		for j := int32(0); j < int32(cfg.SeedUsers); j++ {
			if i != j {
				st.addEdge(i, j)
			}
		}
	}

	// pickGlobal selects a follow target over all vertices.
	pickGlobal := func() int32 {
		n := int32(len(st.out))
		if rng.Float64() < cfg.Attachment {
			// In-degree-proportional via the donor trick: copy a random
			// existing arc's head.
			donor := rng.Int31n(n)
			if len(st.out[donor]) > 0 {
				return st.out[donor][rng.Intn(len(st.out[donor]))]
			}
		}
		return rng.Int31n(n)
	}

	// follow makes u follow a target picked by the closure/global mix.
	follow := func(u int32) {
		var target int32 = -1
		if rng.Float64() < cfg.TriadicClosure && len(st.out[u]) > 0 {
			// Friend-of-friend.
			via := st.out[u][rng.Intn(len(st.out[u]))]
			if len(st.out[via]) > 0 {
				target = st.out[via][rng.Intn(len(st.out[via]))]
			}
		}
		if target < 0 {
			target = pickGlobal()
		}
		if st.addEdge(u, target) && rng.Float64() < cfg.Reciprocity {
			st.addEdge(target, u)
		}
	}

	interval := cfg.Steps / cfg.Checkpoints
	if interval < 1 {
		interval = 1
	}
	evo := &Evolution{}
	for step := 1; step <= cfg.Steps; step++ {
		// Arrivals.
		for a := 0; a < cfg.ArrivalsPerStep; a++ {
			u := st.addVertex()
			invited := rng.Float64() < cfg.InvitedFraction
			if invited {
				inviter := rng.Int31n(u)
				st.addEdge(u, inviter)
				if rng.Float64() < cfg.Reciprocity {
					st.addEdge(inviter, u)
				}
			}
			follows := poissonApprox(rng, cfg.FollowsPerArrival)
			for k := 0; k < follows; k++ {
				follow(u)
			}
		}
		// Ongoing activity of existing users.
		actions := poissonApprox(rng, cfg.ActivityPerStep*float64(len(st.out)))
		for k := 0; k < actions; k++ {
			follow(rng.Int31n(int32(len(st.out))))
		}

		if step%interval == 0 || step == cfg.Steps {
			snap, g, err := st.snapshot(step, rng)
			if err != nil {
				return nil, err
			}
			evo.Snapshots = append(evo.Snapshots, snap)
			if step == cfg.Steps {
				evo.Final = g
			}
		}
	}
	return evo, nil
}

// snapshot materializes the current state and measures it.
func (st *evolveState) snapshot(step int, rng *rand.Rand) (Snapshot, *graph.Graph, error) {
	from, to := make([]graph.VID, 0, st.m), make([]graph.VID, 0, st.m)
	for v, row := range st.out {
		for _, w := range row {
			from, to = append(from, graph.VID(v)), append(to, w)
		}
	}
	g, err := graph.FromArcs(true, denseIDs(len(st.out)), from, to)
	if err != nil {
		return Snapshot{}, nil, fmt.Errorf("snapshot at step %d: %w", step, err)
	}
	snap := Snapshot{
		Step:       step,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		MeanDegree: g.MeanDegree(),
	}
	if g.NumEdges() > 0 {
		snap.Reciprocity = float64(graph.ReciprocalEdgeCount(g)) / float64(g.NumEdges())
	}
	cc, err := graphalgo.SampledClustering(g, 400, rng)
	if err != nil {
		return Snapshot{}, nil, fmt.Errorf("snapshot clustering: %w", err)
	}
	var sum float64
	for _, c := range cc {
		sum += c
	}
	if len(cc) > 0 {
		snap.Clustering = sum / float64(len(cc))
	}
	return snap, g, nil
}
