package ncp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"gpluscircles/internal/core"
	"gpluscircles/internal/experiments"
	"gpluscircles/internal/serve/api"
)

// Request bounds: the endpoint runs inline (no worker-pool admission, no
// result cache — it is experimental), so the knobs are capped, and their
// combined push-work bound is held to a budget, to keep a single
// request's work proportionate.
const (
	maxBodyBytes   = 1 << 20
	maxSeeds       = 512
	maxSweepSize   = 10000
	maxNullSamples = 8
	// minEps is the smallest residual tolerance a request may set (0
	// still selects the default). A seed's cost climbs steeply as eps
	// falls: on scale-1 Google+ the median stratified seed took 0.03 ms
	// at the default 1e-4, 12–16 ms at 1e-6 and 42–47 ms at 1e-8
	// (GOMAXPROCS=1, 2-core Xeon VM), and a request may carry maxSeeds
	// seeds.
	minEps = 1e-8
	// maxPushWork is the budget on a request's push-work bound (see
	// pushWork). On scale-1 Google+ a sweep cost at most about 2 ns per
	// unit of the bound (the worst ratio measured, at eps 1e-6; it falls
	// to 0.05 ns at 1e-8, where one seed's push reaches every vertex;
	// GOMAXPROCS=1, 2-core Xeon VM), so the budget keeps one request near
	// two seconds of one core. The request defaults bound at 2.1e6.
	maxPushWork = 1e9
)

// Handler answers POST /v1/ncp with a network community profile sweep
// of the requested data set. The route is mounted on circled through
// serve.Options.ExtraRoutes, so the serving layer does not import this
// package; the handler gates every request on the ncp-sweep experiment
// (Set.Require), so mounting it unconditionally is safe.
//
// Responses are deterministic for a fixed suite: the sweep merges its
// parallel minima in seed order, so the body bytes are a pure function
// of the request, same as the stable /v1 endpoints.
func Handler(suite *core.Suite, set experiments.Set) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := set.Require(experiments.NCPSweep); err != nil {
			writeNCPError(w, http.StatusBadRequest, api.CodeExperimentGated, err.Error())
			return
		}
		req, err := resolveNCP(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeNCPError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error())
			return
		}
		ds, err := suite.DatasetByName(req.Dataset)
		if err != nil {
			if errors.Is(err, core.ErrUnknownDataset) {
				writeNCPError(w, http.StatusNotFound, api.CodeUnknownDataset, err.Error())
				return
			}
			writeNCPError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}

		opts := Options{
			Seeds:   req.Seeds,
			Eps:     req.Eps,
			Alpha:   req.Alpha,
			MaxSize: req.MaxSize,
			Seed:    req.Seed,
		}
		curve, err := Sweep(ds.Graph, opts)
		if err != nil {
			writeNCPError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		resp := api.NCPResponse{
			Dataset: req.Dataset,
			Seeds:   curve.Seeds,
			Eps:     curve.Eps,
			Alpha:   curve.Alpha,
			Points:  apiPoints(curve),
		}
		if req.NullSamples > 0 {
			seed := req.Seed
			if seed == 0 {
				seed = 1
			}
			nullCurve, err := NullCurve(ds.Graph, req.NullSamples, seed, suite.NullArena(ds.Graph), opts)
			if err != nil {
				writeNCPError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
				return
			}
			resp.NullPoints = apiPoints(nullCurve)
			resp.NullSamples = req.NullSamples
		}

		body, err := json.Marshal(resp)
		if err != nil {
			writeNCPError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// resolveNCP decodes one JSON /v1/ncp request from body and checks every
// field against the request bounds. It is the only path by which request
// bytes reach the sweep; any error it returns is an invalid_request.
func resolveNCP(body io.Reader) (api.NCPRequest, error) {
	var req api.NCPRequest
	if err := api.DecodeRequest(body, &req); err != nil {
		return req, fmt.Errorf("decode request: %w", err)
	}
	switch {
	case req.Dataset == "":
		return req, errors.New("dataset is required")
	case req.Seeds < 0 || req.Seeds > maxSeeds:
		return req, fmt.Errorf("seeds must be in [0, %d], got %d", maxSeeds, req.Seeds)
	case req.Eps < 0 || (req.Eps > 0 && req.Eps < minEps):
		return req, fmt.Errorf("eps must be 0 (the default) or at least %g, got %g", minEps, req.Eps)
	case req.Alpha < 0 || req.Alpha >= 1:
		return req, fmt.Errorf("alpha must be in [0, 1), got %g", req.Alpha)
	case req.MaxSize < 0 || req.MaxSize > maxSweepSize:
		return req, fmt.Errorf("max_size must be in [0, %d], got %d", maxSweepSize, req.MaxSize)
	case req.NullSamples < 0 || req.NullSamples > maxNullSamples:
		return req, fmt.Errorf("null_samples must be in [0, %d], got %d", maxNullSamples, req.NullSamples)
	}
	if work := pushWork(req); work > maxPushWork {
		return req, fmt.Errorf("push-work bound seeds*(1+null_samples)/(alpha*eps) = %.4g exceeds the budget of %.4g", work, float64(maxPushWork))
	}
	return req, nil
}

// pushWork is the Andersen–Chung–Lang bound on the push work of a
// request, with its defaults applied: one push does at most 1/(alpha·eps)
// work, and each seed is pushed on the graph and on every null sample.
// It needs only the request (the seed count is capped at the vertex
// count later), so resolveNCP can refuse a request before any push runs.
func pushWork(req api.NCPRequest) float64 {
	o := Options{Seeds: req.Seeds, Eps: req.Eps, Alpha: req.Alpha}.withDefaults()
	return float64(o.Seeds) * float64(1+req.NullSamples) / (o.Alpha * o.Eps)
}

func apiPoints(c *Curve) []api.NCPPoint {
	pts := make([]api.NCPPoint, len(c.Points))
	for i, p := range c.Points {
		pts[i] = api.NCPPoint{Size: p.Size, Conductance: p.Conductance}
	}
	return pts
}

func writeNCPError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(api.ErrorBody(code, msg))
}
