package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/ga"
	"momosyn/internal/jsonw"
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
		GA:                   ga.Config(req.GA),
		Seed:                 req.Seed,
		Certify:              req.certify(),
	}
}

// canonicalSpec renders sys in its canonical form, the spec part of every
// cache key; nil when no cache is configured. A submission renders it
// once, a batch once per spec.
func (s *Server) canonicalSpec(sys *model.System) []byte {
	if s.cache == nil {
		return nil
	}
	canon, err := specio.Canonical(sys)
	if err != nil {
		return nil
	}
	return canon
}

// cacheKey derives the request's content address from its spec's
// canonical form, or "" when the request is uncacheable (no canonical
// form, because no cache is configured, or a failpoint drill — injected
// faults must actually run).
func (s *Server) cacheKey(canon []byte, req *JobRequest) string {
	if canon == nil || req.Failpoint != "" {
		return ""
	}
	return cas.Key(canon, synth.CanonicalOptions(keyOptions(req)), []byte(synth.EngineVersion))
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

// Result-document heads as renderResult writes them: a cache hit serves
// the published document with only the id between these two swapped.
const (
	hitHeadOpen = "{\n  \"id\": "
	hitHeadDone = ",\n  \"state\": \"done\","
)

// spliceID rebinds a published result document to the job serving it:
// the id is swapped in place and every other byte, certificate and run
// statistics included, is the computing job's. It reports false unless
// the document opens with a job id and the done state exactly as
// renderResult writes them. The cache's digest has already vouched for
// the bytes, so nothing else is parsed.
func spliceID(doc []byte, id string) ([]byte, bool) {
	if !bytes.HasPrefix(doc, []byte(hitHeadOpen+`"`)) {
		return nil, false
	}
	rest := doc[len(hitHeadOpen)+1:]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !validJobID(string(rest[:end])) || !bytes.HasPrefix(rest[end+1:], []byte(hitHeadDone)) {
		return nil, false
	}
	out := make([]byte, 0, len(doc)-end+len(id))
	out = jsonw.AppendString(append(out, hitHeadOpen...), id)
	return append(out, rest[end+1:]...), true
}

// hitDocument returns the result document a hit on e serves as job id of
// a request for system. The entry must be labelled with that system and
// this engine version (both behind the key it was read under) and be
// certified, and its result must take the id splice.
func hitDocument(e *cas.Entry, system, id string) ([]byte, error) {
	if e.System != system || e.Provenance.EngineVersion != synth.EngineVersion || !e.Provenance.Certified {
		return nil, fmt.Errorf("entry labelled %q by %q (certified %v) under this request's key",
			e.System, e.Provenance.EngineVersion, e.Provenance.Certified)
	}
	doc, ok := spliceID(e.Result, id)
	if !ok {
		return nil, errors.New("result document does not open with a done job's id")
	}
	return doc, nil
}

// materializeCached answers a submission from a cache hit: it creates a
// job that is terminal from birth and persists it exactly like a completed
// run (same manifest and result layout, so restarts and fleet peers see a
// normal done job). It returns (nil, nil) — no job, no error — when the
// hit could not be materialised; the caller then falls through to a normal
// run. An entry labelled with another system or engine version than the
// request's key was derived for, or whose result document is not one
// renderResult published (see spliceID), is discarded from the cache, so
// that run can publish its own. A draining server refuses with the usual
// 503.
func (s *Server) materializeCached(req JobRequest, system string, e *cas.Entry) (*Job, *admitError) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, admitErrorf(http.StatusServiceUnavailable, "server is shutting down")
	}
	id, err := s.store.newJobID()
	var doc []byte
	damaged := false
	if err == nil {
		doc, err = hitDocument(e, system, id)
		damaged = err != nil
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
	if damaged {
		s.cache.Discard(e.Key)
	}
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
// cache (worker path) under the key computed at admission, or for a job
// from disk one derived here. Only full, certified runs are published: a
// partial or uncertified result must never short-circuit a future
// submission. The entry holds exactly the document a hit serves, less its
// id: doc itself, or for a run resumed from a checkpoint a second render
// without resumed_from (the serving job never ran).
func (s *Server) cachePublish(j *Job, snap jobSnapshot, sys *model.System, res *synth.Result, doc []byte) {
	if s.cache == nil || res == nil || res.Partial {
		return
	}
	if res.Certification == nil || !res.Certification.Certified() {
		return
	}
	key := j.key
	if key == "" {
		key = s.cacheKey(s.canonicalSpec(sys), &j.Request)
	}
	if key == "" {
		return
	}
	if snap.ResumedFrom != 0 {
		snap.ResumedFrom = 0
		var err error
		if doc, err = renderResult(j, snap, sys, res); err != nil {
			s.logf("serve: job %s: cache publish: %v", j.ID, err)
			return
		}
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
