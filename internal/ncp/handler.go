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
// result cache — it is experimental), so the knobs are capped to keep a
// single request's work proportionate.
const (
	maxBodyBytes   = 1 << 20
	maxSeeds       = 512
	maxSweepSize   = 10000
	maxNullSamples = 8
	// minEps is the smallest residual tolerance a request may set (0
	// still selects the default). A push costs about 1/eps: one Google+
	// seed takes some 0.3 ms at the default 1e-4 but 50 ms at 1e-8 and
	// 100 ms at 1e-10, and a request may carry maxSeeds seeds.
	minEps = 1e-8
)

// Handler answers POST /v1/ncp with a network community profile sweep
// of the requested data set. The route is mounted on circled through
// serve.Options.ExtraRoutes, which keeps the stable serving layer free
// of imports of this gated package; the handler gates every request on
// the ncp-sweep experiment, so mounting it unconditionally is safe.
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
	return req, nil
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
