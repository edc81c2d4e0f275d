package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// The content-addressed result cache. Synthesis is deterministic given
// (spec, seed, options), so a completed certified job publishes its result
// document under cas.Key(canonical spec, canonical options, engine
// version) and every later submission of a semantically identical request
// is answered terminally at admission — zero queue time, zero synthesis
// work. In fleet mode the cache directory lives inside the fleet dir, so
// a result computed by any node is a hit on every node. See docs/CACHE.md.

// keyOptions builds the result-shaping synth.Options a request resolves
// to. It is the single source of truth shared by the cache key and the
// worker (synthesize adds only runtime plumbing on top), so a cached
// result can never be served for options that would have run differently.
func keyOptions(req *JobRequest) synth.Options {
	return synth.Options{
		UseDVS:               req.DVS,
		NeglectProbabilities: req.NeglectProbabilities,
		StallWindow:          req.StallWindow,
		GA: ga.Config{
			PopSize:        req.GA.PopSize,
			MaxGenerations: req.GA.MaxGenerations,
			Stagnation:     req.GA.Stagnation,
		},
		Seed:    req.Seed,
		Certify: req.certify(),
	}
}

// cacheKey derives the request's content address, or ok=false when the
// request is uncacheable (no cache configured, or a failpoint drill —
// injected faults must actually run).
func (s *Server) cacheKey(sys *model.System, req *JobRequest) (string, bool) {
	if s.cache == nil || req.Failpoint != "" {
		return "", false
	}
	canon, err := specio.Canonical(sys)
	if err != nil {
		return "", false
	}
	return cas.Key(canon, synth.CanonicalOptions(keyOptions(req)), []byte(synth.EngineVersion)), true
}

// buildCommit is the VCS revision baked into the binary, for cache entry
// provenance; empty outside a VCS-stamped build.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, setting := range bi.Settings {
			if setting.Key == "vcs.revision" {
				return setting.Value
			}
		}
	}
	return ""
}

// rewriteCachedResult rebinds a cached result document to the job serving
// it: fresh ID, done state, no resume provenance (the serving job never
// ran). Everything else — implementation, power, certification, the
// original run's statistics — is preserved.
func rewriteCachedResult(raw json.RawMessage, id string) ([]byte, error) {
	var v ResultView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	v.ID = id
	v.State = StateDone
	v.ResumedFrom = 0
	return json.MarshalIndent(&v, "", "  ")
}

// materializeCached answers a submission from a cache hit: it creates a
// job that is terminal from birth and persists it exactly like a completed
// run (same manifest and result layout, so restarts and fleet peers see a
// normal done job). It returns (nil, nil) — no job, no error — when the
// hit could not be materialised; the caller then falls through to a normal
// run. A draining server refuses with the usual 503.
func (s *Server) materializeCached(req JobRequest, system string, e *cas.Entry) (*Job, *admitError) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, admitErrorf(http.StatusServiceUnavailable, "server is shutting down")
	}
	id, err := s.store.newJobID()
	var doc []byte
	if err == nil {
		doc, err = rewriteCachedResult(e.Result, id)
	}
	now := time.Now()
	j := &Job{ID: id, Request: req, system: system}
	j.state = StateDone
	j.cached = true
	j.created, j.finished = now, now
	if err == nil {
		err = s.store.create(j, doc)
	}
	if err == nil {
		s.addJobLocked(j)
	}
	s.mu.Unlock()
	if err != nil {
		s.logf("serve: cache hit for %s discarded: %v", system, err)
		return nil, nil
	}
	s.reg.Counter("serve.jobs_submitted").Inc()
	if s.lifecycleTracing() {
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobCached,
			State: string(StateDone), Node: s.cfg.NodeID,
			Detail: fmt.Sprintf("key %.12s", e.Key)})
	}
	return j, nil
}

// cachePublish stores a completed job's certified result document in the
// cache (worker path). Only full, certified runs are published: a partial
// or uncertified result must never short-circuit a future submission.
func (s *Server) cachePublish(j *Job, sys *model.System, res *synth.Result, doc []byte) {
	if s.cache == nil || res == nil || res.Partial {
		return
	}
	if res.Certification == nil || !res.Certification.Certified() {
		return
	}
	key, ok := s.cacheKey(sys, &j.Request)
	if !ok {
		return
	}
	err := s.cache.Put(&cas.Entry{
		Key:    key,
		System: sys.App.Name,
		Provenance: cas.Provenance{
			EngineVersion: synth.EngineVersion,
			Commit:        buildCommit(),
			Certified:     true,
		},
		Result: doc,
	})
	if err != nil {
		s.logf("serve: job %s: cache publish: %v", j.ID, err)
	}
}
