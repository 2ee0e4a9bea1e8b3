package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

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

// defaultFuncs are the paper's four functions, scored when a request
// names none. Shared by every such request and never written.
var defaultFuncs = []string{"avgdeg", "ratiocut", "conductance", "modularity"}

// scoreJob is a validated, resolved score request ready for the pool.
type scoreJob struct {
	req     api.ScoreRequest
	ds      *synth.Dataset
	idx     *datasetIndex
	members []graph.VID // sorted, deduplicated dense indices; read-only
	funcs   []score.Func
	key     string
}

// datasetIndex is what /v1/score needs of one data set that no request
// changes. It is built on the first request to its data set and only
// read after that, so requests share it without a lock.
type datasetIndex struct {
	groups map[string]groupEntry
	// sets holds *graph.Set bitmaps sized for the data set's graph, so a
	// pool worker fills a reused set instead of allocating one per job.
	sets sync.Pool
}

// groupEntry is one named group in canonical form.
type groupEntry struct {
	members []graph.VID // private sorted, deduplicated copy; read-only
	hash    uint64      // setHash(members)
}

// lazyIndex builds one data set's index once.
type lazyIndex struct {
	once sync.Once
	idx  *datasetIndex
}

// newDatasetIndex canonicalizes and hashes every group of ds. Each
// entry owns a copy of the group's members, so the data set's ground
// truth is never touched by request handling.
func newDatasetIndex(ds *synth.Dataset) *datasetIndex {
	n := ds.Graph.NumVertices()
	idx := &datasetIndex{
		groups: make(map[string]groupEntry, len(ds.Groups)),
		sets:   sync.Pool{New: func() any { return graph.NewSet(n) }},
	}
	for _, grp := range ds.Groups {
		members := canonicalMembers(slices.Clone(grp.Members))
		idx.groups[grp.Name] = groupEntry{members: members, hash: setHash(members)}
	}
	return idx
}

// datasetIndex returns the index of the registry data set name, building
// it from ds on first use.
func (s *Server) datasetIndex(name string, ds *synth.Dataset) *datasetIndex {
	l := s.indexes[name]
	l.once.Do(func() { l.idx = newDatasetIndex(ds) })
	return l.idx
}

// handleScore validates the request in the handler goroutine (cheap, no
// pool slot needed) and funnels the execution through dispatch.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "draining")
		return
	}
	job, herr := s.resolveScore(http.MaxBytesReader(w, r.Body, maxScoreBodyBytes))
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
	job := &scoreJob{}
	req := &job.req
	if err := api.DecodeRequest(body, req); err != nil {
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

	idx := s.datasetIndex(req.Dataset, ds)
	var members []graph.VID
	var hash uint64
	if req.Group != "" {
		// The entry is already canonical and hashed; jobs share its
		// members read-only.
		grp, ok := idx.groups[req.Group]
		if !ok {
			return nil, &httpErr{status: http.StatusNotFound, code: api.CodeUnknownGroup,
				msg: fmt.Sprintf("group %q: not in dataset %s", req.Group, req.Dataset)}
		}
		members, hash = grp.members, grp.hash
	} else {
		members = make([]graph.VID, 0, len(req.Members))
		for _, id := range req.Members {
			v, ok := ds.Graph.Lookup(id)
			if !ok {
				return nil, badRequest(api.CodeUnknownMember, "member %d: not in dataset %s", id, req.Dataset)
			}
			members = append(members, v)
		}
		members = canonicalMembers(members)
		hash = setHash(members)
	}
	if len(members) == 0 {
		return nil, badRequest(api.CodeInvalidRequest, "empty vertex set")
	}

	if len(req.Funcs) == 0 {
		req.Funcs = defaultFuncs
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

	job.ds, job.idx, job.members, job.funcs = ds, idx, members, fns
	job.key = scoreKey(req, hash, len(members))
	return job, nil
}

// canonicalMembers sorts and deduplicates the dense vertex set in place
// so requests naming the same set in any order share one set hash.
func canonicalMembers(members []graph.VID) []graph.VID {
	slices.Sort(members)
	return slices.Compact(members)
}

// setHash is the 64-bit FNV-1a hash of a canonical member set, read as
// eight little-endian bytes per member.
func setHash(members []graph.VID) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range members {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// keySeed seeds the hash of a request's group and function list in
// scoreKey. Keys never leave the process's request table, so a seed
// drawn at start-up serves.
var keySeed = maphash.MakeSeed()

// scoreKey derives the coalescing and cache key of a request whose
// canonical member set has hash setHash and n members. The dataset (a
// registry name, checked before) and the integer fields are spelled
// out; the group and the function list, which a client may make as long
// as its body allows, enter as one 64-bit hash, so a key's length is
// bounded whatever the request holds. Two requests with equal keys
// therefore get byte-identical responses unless two sets of one size
// collide in setHash or two (group, functions) pairs collide in the
// seeded hash, which is what makes answering both from one execution —
// or from the result cache — sound.
func scoreKey(req *api.ScoreRequest, setHash uint64, n int) string {
	var h maphash.Hash
	h.SetSeed(keySeed)
	_, _ = h.WriteString(req.Group)
	for _, f := range req.Funcs {
		// Neither group nor function names hold a NUL, so the stream
		// splits back into its fields.
		_ = h.WriteByte(0)
		_, _ = h.WriteString(f)
	}
	b := make([]byte, 0, 96)
	b = append(b, "score/"...)
	b = append(b, req.Dataset...)
	b = append(b, '/')
	b = strconv.AppendUint(b, setHash, 16)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(req.NullSamples), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, req.Seed, 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, h.Sum64(), 16)
	return string(b)
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

	set := job.idx.sets.Get().(*graph.Set)
	set.Fill(job.members)
	cut := graph.Cut(g, set)
	resp.N = cut.N
	resp.InternalEdges = cut.Internal
	resp.BoundaryEdges = cut.Boundary
	resp.Scores = make(map[string]float64, len(job.funcs))
	for _, f := range job.funcs {
		resp.Scores[f.Name] = f.Eval(sctx, set, cut)
	}
	job.idx.sets.Put(set)

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
