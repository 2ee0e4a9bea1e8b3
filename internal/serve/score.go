package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"

	"gpluscircles/internal/experiments"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/score"
	"gpluscircles/internal/serve/api"
	"gpluscircles/internal/synth"
)

// maxScoreBodyBytes bounds one score request body.
const maxScoreBodyBytes = 1 << 20

// httpErr pairs a client-facing message with its HTTP status and the
// envelope's machine-readable code.
type httpErr struct {
	status int
	code   string
	msg    string
}

func badRequest(code, format string, args ...any) *httpErr {
	return &httpErr{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// errorBody marshals the uniform error envelope for a pooled result.
func errorBody(code, format string, args ...any) []byte {
	return api.ErrorBody(code, fmt.Sprintf(format, args...))
}

// scoreJob is a validated, resolved score request ready for the pool.
type scoreJob struct {
	req     api.ScoreRequest
	ds      *synth.Dataset
	members []graph.VID // sorted, deduplicated dense indices
	funcs   []score.Func
	key     string
}

// handleScore validates the request in the handler goroutine (cheap, no
// pool slot needed) and funnels the execution through dispatch.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "draining")
		return
	}
	job, herr := s.resolveScore(http.MaxBytesReader(nil, r.Body, maxScoreBodyBytes))
	if herr != nil {
		writeError(w, herr.status, herr.code, herr.msg)
		return
	}
	s.dispatch(w, r, job.key, func(ctx context.Context) ([]byte, int) {
		return s.runScore(ctx, job)
	})
}

// resolveScore decodes one JSON score request from body, validates it
// and resolves every name (dataset, group, members, functions) against
// the suite. It is the only path by which request bytes reach scoring.
func (s *Server) resolveScore(body io.Reader) (*scoreJob, *httpErr) {
	var req api.ScoreRequest
	if err := api.DecodeRequest(body, &req); err != nil {
		return nil, badRequest(api.CodeInvalidRequest, "invalid request body: %v", err)
	}
	if req.Dataset == "" {
		return nil, badRequest(api.CodeInvalidRequest, "dataset is required")
	}
	if (req.Group == "") == (len(req.Members) == 0) {
		return nil, badRequest(api.CodeInvalidRequest, "exactly one of group and members must be set")
	}
	if req.NullSamples < 0 {
		return nil, badRequest(api.CodeInvalidRequest, "null_samples must be >= 0")
	}
	if req.NullSamples > s.opts.MaxNullSamples {
		return nil, badRequest(api.CodeInvalidRequest, "null_samples %d exceeds the limit %d", req.NullSamples, s.opts.MaxNullSamples)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.NullSamples == 0 {
		req.Seed = 0 // seed is meaningless without the empirical null; normalize for coalescing
	}

	ds, herr := s.suiteDataset(req.Dataset)
	if herr != nil {
		return nil, herr
	}

	var members []graph.VID
	if req.Group != "" {
		shared, ok := s.groupMembers(req.Dataset, ds, req.Group)
		if !ok {
			return nil, &httpErr{status: http.StatusNotFound, code: api.CodeUnknownGroup,
				msg: fmt.Sprintf("group %q: not in dataset %s", req.Group, req.Dataset)}
		}
		// Clone: the index hands out the data set's own membership slice
		// and canonicalMembers sorts in place; concurrent requests for
		// one group must never mutate the shared ground truth.
		members = append([]graph.VID(nil), shared...)
	} else {
		members = make([]graph.VID, 0, len(req.Members))
		for _, id := range req.Members {
			v, ok := ds.Graph.Lookup(id)
			if !ok {
				return nil, badRequest(api.CodeUnknownMember, "member %d: not in dataset %s", id, req.Dataset)
			}
			members = append(members, v)
		}
	}
	members = canonicalMembers(members)
	if len(members) == 0 {
		return nil, badRequest(api.CodeInvalidRequest, "empty vertex set")
	}

	if len(req.Funcs) == 0 {
		req.Funcs = []string{"avgdeg", "ratiocut", "conductance", "modularity"}
	}
	fns, err := score.ByName(req.Funcs...)
	if err != nil {
		return nil, badRequest(api.CodeUnknownFunc, "%v", err)
	}
	for _, f := range fns {
		// The triangle-density score is an experimental surface: its
		// null-model calibration is still settling (experiments registry),
		// so requests must opt in when the server was launched with it.
		if f.Name == "cohesion" {
			if err := s.opts.Experiments.Require(experiments.TriangleCohesion); err != nil {
				return nil, badRequest(api.CodeExperimentGated, "%v", err)
			}
		}
	}

	return &scoreJob{
		req:     req,
		ds:      ds,
		members: members,
		funcs:   fns,
		key:     scoreKey(&req, members),
	}, nil
}

// canonicalMembers sorts and deduplicates the dense vertex set so
// requests naming the same set in any order share one coalescing key.
func canonicalMembers(members []graph.VID) []graph.VID {
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	w := 0
	for i, v := range members {
		if i == 0 || v != members[w-1] {
			members[w] = v
			w++
		}
	}
	return members[:w]
}

// scoreKey derives the coalescing and cache key: dataset + group +
// canonical set hash + functions + null-model parameters. Two requests
// with equal keys are guaranteed byte-identical responses, which is
// what makes answering both from one execution — or from the result
// cache — sound.
func scoreKey(req *api.ScoreRequest, members []graph.VID) string {
	h := fnv.New64a()
	var buf [8]byte
	writeField := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	writeField(req.Dataset)
	writeField(req.Group)
	for _, v := range members {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:])
	}
	writeField(strings.Join(req.Funcs, ","))
	binary.LittleEndian.PutUint64(buf[:], uint64(req.NullSamples))
	_, _ = h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(req.Seed))
	_, _ = h.Write(buf[:])
	return fmt.Sprintf("score/%016x/%s/%d", h.Sum64(), req.Dataset, len(members))
}

// groupMembers resolves a group name within a data set through a lazily
// built per-dataset index (linear scans would be O(groups) per request).
func (s *Server) groupMembers(name string, ds *synth.Dataset, group string) ([]graph.VID, bool) {
	s.groupsMu.Lock()
	defer s.groupsMu.Unlock()
	if s.groups == nil {
		s.groups = make(map[string]map[string][]graph.VID)
	}
	idx, ok := s.groups[name]
	if !ok {
		idx = make(map[string][]graph.VID, len(ds.Groups))
		for _, grp := range ds.Groups {
			idx[grp.Name] = grp.Members
		}
		s.groups[name] = idx
	}
	members, ok := idx[group]
	return members, ok
}

// runScore executes one resolved score job on a pool worker. ctx is the
// call's deadline/cancellation context: it is checked up front and
// threaded into the empirical estimator, whose workers abandon sampling
// at the next sample boundary when the last waiter departs or the
// deadline passes.
func (s *Server) runScore(ctx context.Context, job *scoreJob) ([]byte, int) {
	if err := ctx.Err(); err != nil {
		return errorBody(api.CodeCancelled, "cancelled before scoring: %v", err), http.StatusServiceUnavailable
	}
	g := job.ds.Graph
	sctx := s.opts.Suite.ScoreContext(g)
	resp := api.ScoreResponse{
		Dataset: job.req.Dataset,
		Group:   job.req.Group,
		Null:    "analytic",
	}
	if job.req.NullSamples > 0 {
		est, err := nullmodel.NewEmpiricalEstimatorCtx(ctx, g, nullmodel.EstimatorOptions{
			Samples:  job.req.NullSamples,
			Seed:     job.req.Seed,
			Arena:    s.opts.Suite.NullArena(g),
			Recorder: s.rec,
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return errorBody(api.CodeCancelled, "null-model sampling cancelled: %v", err), http.StatusServiceUnavailable
			}
			return errorBody(api.CodeInternal, "null-model sampling: %v", err), http.StatusInternalServerError
		}
		defer est.Close()
		// A private context: the shared analytic one must never be
		// mutated (its NullExpectation is read concurrently).
		nctx := score.NewContext(g)
		nctx.NullExpectation = est.Func()
		sctx = nctx
		resp.Null = "empirical"
		resp.NullSamples = job.req.NullSamples
		resp.Seed = job.req.Seed
	}

	set := graph.SetOf(g, job.members)
	cut := graph.Cut(g, set)
	resp.N = cut.N
	resp.InternalEdges = cut.Internal
	resp.BoundaryEdges = cut.Boundary
	resp.Scores = make(map[string]float64, len(job.funcs))
	for _, f := range job.funcs {
		resp.Scores[f.Name] = f.Eval(sctx, set, cut)
	}

	body, err := json.Marshal(resp)
	if err != nil {
		return errorBody(api.CodeInternal, "encode response: %v", err), http.StatusInternalServerError
	}
	return body, http.StatusOK
}

// handleCharacterize serves the memoized Table II profile of a data set
// through the pool: the first request pays the BFS sweeps and clustering
// samples (coalesced across a herd), later ones hit the result cache.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "draining")
		return
	}
	name := r.PathValue("dataset")
	ds, herr := s.suiteDataset(name)
	if herr != nil {
		writeError(w, herr.status, herr.code, herr.msg)
		return
	}
	s.dispatch(w, r, "characterize/"+name, func(ctx context.Context) ([]byte, int) {
		return s.runCharacterize(ctx, name, ds)
	})
}

// runCharacterize renders the profile DTO on a pool worker. The profile
// itself is memoized by the suite; cancellation is honored up front
// (the profile computation is the atomic unit, like an experiment).
func (s *Server) runCharacterize(ctx context.Context, name string, ds *synth.Dataset) ([]byte, int) {
	if err := ctx.Err(); err != nil {
		return errorBody(api.CodeCancelled, "cancelled before characterization: %v", err), http.StatusServiceUnavailable
	}
	p, err := s.opts.Suite.Profile(ds)
	if err != nil {
		return errorBody(api.CodeInternal, "characterize %s: %v", name, err), http.StatusInternalServerError
	}
	resp := api.CharacterizeResponse{
		Dataset:        name,
		Display:        p.Name,
		Vertices:       p.Vertices,
		Edges:          p.Edges,
		Directed:       p.Directed,
		Diameter:       p.Diameter,
		ASP:            p.ASP,
		MeanDegree:     p.MeanDegree,
		MeanInDegree:   p.MeanInDegree,
		MeanOutDegree:  p.MeanOutDegree,
		Reciprocity:    p.Reciprocity,
		Assortativity:  p.Assortativity,
		Degeneracy:     p.Degeneracy,
		DegreeGini:     p.DegreeGini,
		ClusteringMean: p.Clustering.Mean,
		Groups:         len(ds.Groups),
	}
	if p.DegreeFit != nil {
		resp.DegreeFitBest = p.DegreeFit.Best
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return errorBody(api.CodeInternal, "encode response: %v", err), http.StatusInternalServerError
	}
	return body, http.StatusOK
}
