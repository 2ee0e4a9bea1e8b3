package gpluscircles_test

// BenchmarkScoreRequest times whole analytic POST /v1/score requests in
// process through serve.Server.Handler(), cycling over every group of
// the four group data sets of the shared benchmark suite, as perfbench
// query-mix does over HTTP. hit answers every request from the result
// cache; miss keeps no finished call, so every request is decoded,
// resolved, queued, scored on the pool and encoded.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/serve"
	"gpluscircles/internal/serve/api"
)

func BenchmarkScoreRequest(b *testing.B) {
	s := suite(b)
	var bodies []string
	for _, name := range core.DatasetNames() {
		ds, err := s.DatasetByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, grp := range ds.Groups {
			body, err := json.Marshal(api.ScoreRequest{Dataset: name, Group: grp.Name})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, string(body))
		}
	}
	b.Run("hit", func(b *testing.B) { benchScoreRequest(b, s, bodies, len(bodies)) })
	b.Run("miss", func(b *testing.B) { benchScoreRequest(b, s, bodies, -1) })
}

// benchScoreRequest serves bodies round robin from a fresh server
// keeping cacheSize finished calls (negative: none). Every body is sent
// once before the timer starts, which fills the cache of a hit run and
// builds the data sets' request indexes.
func benchScoreRequest(b *testing.B, s *core.Suite, bodies []string, cacheSize int) {
	srv, err := serve.NewServer(serve.Options{Suite: s, CacheSize: cacheSize})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	h := srv.Handler()
	wantHit := cacheSize > 0
	do := func(body string, timed bool) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if hit := rec.Header().Get("X-Cache") == "hit"; timed && hit != wantHit {
			b.Fatalf("X-Cache hit = %v, want %v", hit, wantHit)
		}
	}
	for _, body := range bodies {
		do(body, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(bodies[i%len(bodies)], true)
	}
}
