// Package api is the versioned wire contract of the /v1 analysis
// service: every request, response and error body that crosses the HTTP
// boundary is declared here and nowhere else. The serving layer
// (internal/serve) and the load generator (cmd/circleload) both speak
// these types, so the contract can only drift in one place and the doc
// comments below double as the API reference.
//
// # Endpoints
//
//	POST /v1/score                  ScoreRequest  -> ScoreResponse
//	POST /v1/ncp                    NCPRequest    -> NCPResponse (gated: ncp-sweep)
//	GET  /v1/characterize/{dataset} -> CharacterizeResponse
//	GET  /v1/datasets               -> []DatasetInfo
//	GET  /v1/experiments            -> []ExperimentInfo
//	GET  /healthz                   -> {"status":"ok"|"draining"}
//	GET  /metrics                   -> MetricsResponse
//
// # Errors
//
// Every non-2xx response — from any endpoint, on any path — is the
// one JSON envelope declared in error.go:
//
//	{"error":{"code":"unknown_dataset","message":"..."}}
//
// with Content-Type application/json. The code is machine-readable and
// stable (the Code* constants); the message is human-readable and may
// change. 429 responses additionally carry a Retry-After header with
// the advertised backoff in seconds.
//
// # Determinism
//
// For a fixed suite (scale, seed), every 2xx body is a pure function of
// the request: the service exploits that to coalesce concurrent
// duplicates and to answer repeats from a result cache with the exact
// bytes of the original computation (marked by an X-Cache: hit response
// header).
package api

import "gpluscircles/internal/obs"

// ScoreRequest is the POST /v1/score body: score one vertex set — a
// named circle/community of the data set, or an arbitrary node set
// given by external vertex IDs — under the paper's scoring functions.
type ScoreRequest struct {
	// Dataset is a registry name from GET /v1/datasets (e.g. "gplus").
	Dataset string `json:"dataset"`
	// Group names an existing circle/community of the data set.
	// Exactly one of Group and Members must be set.
	Group string `json:"group,omitempty"`
	// Members is an arbitrary node set as external vertex IDs.
	Members []int64 `json:"members,omitempty"`
	// Funcs selects scoring functions by registry name; empty selects
	// the paper's four (avgdeg, ratiocut, conductance, modularity).
	Funcs []string `json:"funcs,omitempty"`
	// NullSamples > 0 switches Modularity's E(m_C) from the analytic
	// Chung-Lu expectation to the empirical Viger-Latapy estimator with
	// that many degree-preserving samples.
	NullSamples int `json:"null_samples,omitempty"`
	// Seed drives the empirical null model; 0 selects 1. Part of the
	// coalescing and cache key, so equal seeds provably share one
	// execution.
	Seed int64 `json:"seed,omitempty"`
}

// ScoreResponse is the /v1/score result. For a fixed suite (scale,
// seed), the response bytes are a pure function of the request.
type ScoreResponse struct {
	Dataset string `json:"dataset"`
	Group   string `json:"group,omitempty"`
	// N, InternalEdges and BoundaryEdges are n_C, m_C and c_C of the
	// paper's Table I nomenclature.
	N             int   `json:"n"`
	InternalEdges int64 `json:"internal_edges"`
	BoundaryEdges int64 `json:"boundary_edges"`
	// Null reports which E(m_C) fed Modularity: "analytic" or
	// "empirical".
	Null        string             `json:"null"`
	NullSamples int                `json:"null_samples,omitempty"`
	Seed        int64              `json:"seed,omitempty"`
	Scores      map[string]float64 `json:"scores"`
}

// CharacterizeResponse is the GET /v1/characterize/{dataset} result:
// the Table II scalar profile of the graph, served from the suite's
// memoized CharacterizeGraph run.
type CharacterizeResponse struct {
	Dataset       string  `json:"dataset"`
	Display       string  `json:"display"`
	Vertices      int     `json:"vertices"`
	Edges         int64   `json:"edges"`
	Directed      bool    `json:"directed"`
	Diameter      int     `json:"diameter"`
	ASP           float64 `json:"asp"`
	MeanDegree    float64 `json:"mean_degree"`
	MeanInDegree  float64 `json:"mean_in_degree"`
	MeanOutDegree float64 `json:"mean_out_degree"`
	Reciprocity   float64 `json:"reciprocity"`
	Assortativity float64 `json:"assortativity"`
	Degeneracy    int     `json:"degeneracy"`
	DegreeGini    float64 `json:"degree_gini"`
	// DegreeFitBest is the winning family of the CSN degree-fit
	// comparison ("power-law", "log-normal", "exponential").
	DegreeFitBest  string  `json:"degree_fit_best,omitempty"`
	ClusteringMean float64 `json:"clustering_mean"`
	Groups         int     `json:"groups"`
}

// DatasetInfo is one GET /v1/datasets inventory entry. circleload uses
// the inventory to build its request mix.
type DatasetInfo struct {
	// Name is the registry name used in score/characterize requests.
	Name string `json:"name"`
	// Display is the data set's report name (e.g. "Google+").
	Display  string   `json:"display"`
	Vertices int      `json:"vertices"`
	Edges    int64    `json:"edges"`
	Directed bool     `json:"directed"`
	Kind     string   `json:"kind"`
	Groups   []string `json:"groups"`
}

// ExperimentInfo is one GET /v1/experiments entry: a registered
// experiment and whether this process enabled it (-experiments).
type ExperimentInfo struct {
	Name    string `json:"name"`
	Doc     string `json:"doc"`
	Enabled bool   `json:"enabled"`
}

// MetricsResponse is the GET /metrics payload: the obs recorder
// snapshot plus the process uptime.
type MetricsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Metrics       obs.Snapshot `json:"metrics"`
}
