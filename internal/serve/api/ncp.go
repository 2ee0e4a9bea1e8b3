package api

// NCPRequest is the POST /v1/ncp body: sweep the network community
// profile of one data set's graph — the best conductance achievable at
// each community size, probed by approximate personalized-PageRank
// local clustering from degree-stratified seeds. The endpoint is gated
// by the ncp-sweep experiment (-experiments=ncp-sweep on circled).
type NCPRequest struct {
	// Dataset is a registry name from GET /v1/datasets (e.g. "gplus").
	Dataset string `json:"dataset"`
	// Seeds is the number of PPR seed vertices (default 32, capped at
	// the vertex count).
	Seeds int `json:"seeds,omitempty"`
	// Eps is the PPR residual tolerance (default 1e-4); smaller values
	// explore larger supports at proportional cost, so a set value must
	// be at least 1e-8.
	Eps float64 `json:"eps,omitempty"`
	// Alpha is the PPR teleport probability (default 0.15).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxSize bounds the community sizes swept (default 400).
	MaxSize int `json:"max_size,omitempty"`
	// Seed drives seed stratification (and the null rewiring chain when
	// NullSamples > 0); 0 selects 1. The endpoint has no coalescer or
	// cache: equal requests each run the sweep and get equal bytes.
	Seed int64 `json:"seed,omitempty"`
	// NullSamples > 0 additionally sweeps that many degree-preserving
	// rewired null graphs and reports the pointwise-minimum null curve.
	NullSamples int `json:"null_samples,omitempty"`
}

// NCPPoint is one point of a network community profile: the best (i.e.
// minimum) conductance observed over all swept sets of exactly Size
// vertices. Sizes with no swept set are omitted, so consecutive points
// may skip sizes.
type NCPPoint struct {
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
}

// NCPResponse is the /v1/ncp result. For a fixed suite (scale, seed),
// the response bytes are a pure function of the request — the sweep's
// parallel fan-out merges per-seed minima in seed order, so worker
// scheduling never shows in the body.
type NCPResponse struct {
	Dataset string  `json:"dataset"`
	Seeds   int     `json:"seeds"`
	Eps     float64 `json:"eps"`
	Alpha   float64 `json:"alpha"`
	// Points is the NCP curve, ascending by size.
	Points []NCPPoint `json:"points"`
	// NullPoints is the pointwise-minimum curve over the rewired null
	// samples; present only when the request set NullSamples > 0.
	NullPoints  []NCPPoint `json:"null_points,omitempty"`
	NullSamples int        `json:"null_samples,omitempty"`
}
