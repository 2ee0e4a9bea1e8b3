package experiments

// The project's experiment registry. Keep this file the single place
// current and concluded experiments are declared, so a reviewer can
// read the whole experimental surface at a glance.
var (
	// TriangleCohesion gates the triangle-density scoring surface: the
	// `cohesion` scoring function over HTTP and in the explicit
	// circlebench/circledetect selections. The kernel itself (graphalgo)
	// and the registry-driven full runs are stable; the gate marks the
	// score's null-model calibration (analytic vs empirical triangle
	// expectation) as still settling, so its HTTP and CLI opt-in surface
	// may change between commits.
	TriangleCohesion = Register("triangle-cohesion",
		"triangle-density cohesion scoring (score func \"cohesion\", circlebench -experiment cohesion, circledetect -cohesion)")

	// NCPSweep gates the network-community-profile surface: the ncp
	// experiment selection in circlebench and POST /v1/ncp on circled,
	// both backed by internal/ncp. The PPR push and sweep-cut kernels
	// underneath live in stable packages; the gate covers the sweep
	// driver's knobs — seed stratification, eps/size defaults, the curve
	// wire shape — which may change while the NCP reading of the paper
	// settles.
	NCPSweep = Register("ncp-sweep",
		"network community profile sweep (circlebench -experiment ncp, POST /v1/ncp)")
)

func init() {
	// The pre-streaming scale path materialized a full EdgeList before
	// building the CSR; the StreamBuilder replaced it (DESIGN.md §9).
	// Remembering the name here turns a stale script into a pointer at
	// the replacement instead of an unknown-experiment error.
	Conclude("scale-edgelist",
		`the "scale-edgelist" experiment is defunct: the paper-scale data set is now built by the streaming pipeline (synthgen -dataset scale, circlebench -experiment fig6-scale), which needs no opt-in`)

	// Graduated: its surface stays, only the opt-in is gone. Concluding
	// the name keeps old -experiments values from failing as unknown.
	Conclude("scale-pipeline",
		`the "scale-pipeline" experiment has graduated: synthgen -dataset scale and circlebench -experiment fig6-scale run without opt-in; drop it from -experiments`)

	// Removed with its surface: no measured workload used the batch
	// endpoint, and unary requests reach the same cache and coalescer.
	Conclude("batch-scoring",
		`the "batch-scoring" experiment is defunct: the NDJSON batch endpoint was removed; send one POST /v1/score per request instead`)
}
