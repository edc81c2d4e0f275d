package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/model"
	"momosyn/internal/specio"
)

// The batch submission API. POST /v1/batches expands a specs×seeds×options
// matrix into child jobs server-side, collapsing cells that share a cache
// key (within the batch and against the result cache) so a sweep over
// prior work admits only the genuinely new runs. Admission shedding, queue
// bounds and retry budgets apply to every child individually: a rejected
// cell is recorded on the batch, never silently dropped, and resubmitting
// the same batch later re-runs only what is still missing. See
// docs/SERVER.md.

const (
	// maxBatchSpecs bounds the specs axis of one batch.
	maxBatchSpecs = 64
	// maxBatchCells bounds the full expansion of one batch.
	maxBatchCells = 1024
)

// BatchSpecRef names one spec of a batch, inline or by server-side name —
// exactly one of the two.
type BatchSpecRef struct {
	Spec     string `json:"spec,omitempty"`
	SpecName string `json:"spec_name,omitempty"`
}

// BatchRequest is the JSON body of POST /v1/batches. The batch expands to
// one cell per (spec, seed, option) triple — specs outermost, then seeds,
// then options — so cell indices are stable and reproducible. Options
// entries reuse the JobRequest shape but must not set spec, spec_name,
// seed or failpoint (those belong to the matrix axes); an absent options
// list means one run per (spec, seed) with default options.
type BatchRequest struct {
	Specs   []BatchSpecRef `json:"specs"`
	Seeds   []int64        `json:"seeds"`
	Options []JobRequest   `json:"options,omitempty"`
}

// BatchCell records how one cell of the matrix was admitted. Cells are
// immutable once the batch is created; live job state is joined in by the
// status and results endpoints.
type BatchCell struct {
	// Cell is the index in expansion order.
	Cell int `json:"cell"`
	// Spec, Seed and Option locate the cell in the request matrix.
	Spec   int   `json:"spec"`
	Seed   int64 `json:"seed"`
	Option int   `json:"option"`
	// System is the parsed specification's system name.
	System string `json:"system,omitempty"`
	// Job is the child job answering this cell; empty when rejected.
	Job string `json:"job,omitempty"`
	// Duplicate marks a cell collapsed into an earlier cell's job because
	// both resolve to the same content-address.
	Duplicate bool `json:"duplicate,omitempty"`
	// CacheHit marks a cell answered terminally from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Rejected carries the admission refusal (shed deadline, full queue)
	// when the cell could not be queued.
	Rejected string `json:"rejected,omitempty"`
}

// Batch is one accepted batch: its identity plus the immutable cell
// records. Aggregate progress is always computed live from the job table.
type Batch struct {
	ID      string      `json:"id"`
	Created time.Time   `json:"created"`
	Cells   []BatchCell `json:"cells"`
}

// BatchStatusView is the JSON body of GET /v1/batches/{id} and the summary
// part of the submission response.
type BatchStatusView struct {
	ID      string `json:"id"`
	Created string `json:"created,omitempty"`
	// Cells is the full matrix size; Jobs the deduplicated child count.
	Cells      int `json:"cells"`
	Jobs       int `json:"jobs"`
	Duplicates int `json:"duplicates,omitempty"`
	CacheHits  int `json:"cache_hits,omitempty"`
	Rejected   int `json:"rejected,omitempty"`
	// States counts the distinct child jobs by their current state.
	States map[string]int `json:"states,omitempty"`
	// Done over Total tracks terminal child jobs; Complete is Done==Total.
	Done     int  `json:"done"`
	Total    int  `json:"total"`
	Complete bool `json:"complete"`
}

// BatchSubmitView is the JSON body answering POST /v1/batches.
type BatchSubmitView struct {
	BatchStatusView
	Cells []BatchCell `json:"cell_details"`
	// Warnings are the spec readers' semantic lint findings, prefixed with
	// the spec index they belong to.
	Warnings []string `json:"warnings,omitempty"`
}

// BatchCellResult is one entry of GET /v1/batches/{id}/results: the cell
// record joined with the child job's live state and, once terminal, its
// result document.
type BatchCellResult struct {
	BatchCell
	State  State           `json:"state,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchResultsView is the JSON body of GET /v1/batches/{id}/results. Next,
// when present, is the cursor of the following page.
type BatchResultsView struct {
	ID      string            `json:"id"`
	Results []BatchCellResult `json:"results"`
	Next    string            `json:"next,omitempty"`
}

// batchID formats batch identifiers; the b prefix keeps them disjoint from
// job IDs.
func batchID(n int) string { return fmt.Sprintf("b%06d", n) }

var batchIDRe = regexp.MustCompile(`^b[0-9]{6,9}$`)

func validBatchID(id string) bool { return batchIDRe.MatchString(id) }

// validateBatch checks the matrix shape; per-cell request validation
// happens during expansion.
func validateBatch(req *BatchRequest) *admitError {
	if len(req.Specs) == 0 {
		return admitErrorf(http.StatusBadRequest, "specs must not be empty")
	}
	if len(req.Specs) > maxBatchSpecs {
		return admitErrorf(http.StatusBadRequest, "at most %d specs per batch (got %d)", maxBatchSpecs, len(req.Specs))
	}
	if len(req.Seeds) == 0 {
		return admitErrorf(http.StatusBadRequest, "seeds must not be empty")
	}
	options := len(req.Options)
	if options == 0 {
		options = 1
	}
	if cells := len(req.Specs) * len(req.Seeds) * options; cells > maxBatchCells {
		return admitErrorf(http.StatusBadRequest, "batch expands to %d cells, the limit is %d", cells, maxBatchCells)
	}
	for i := range req.Options {
		o := &req.Options[i]
		switch {
		case o.Spec != "" || o.SpecName != "":
			return admitErrorf(http.StatusBadRequest, "options[%d]: spec belongs to the specs axis", i)
		case o.Seed != 0:
			return admitErrorf(http.StatusBadRequest, "options[%d]: seed belongs to the seeds axis", i)
		case o.Failpoint != "":
			return admitErrorf(http.StatusBadRequest, "options[%d]: failpoints are not allowed in batches", i)
		}
		if aerr := checkBudgets(o); aerr != nil {
			return admitErrorf(aerr.status, "options[%d]: %s", i, aerr.msg)
		}
	}
	return nil
}

// cellRequest assembles the JobRequest of one cell from its option
// template, resolved spec text and seed.
func cellRequest(opt JobRequest, spec string, seed int64) JobRequest {
	opt.Spec = spec
	opt.SpecName = ""
	opt.Seed = seed
	return opt
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !readJSON(w, r, maxSpecBytes*maxBatchSpecs, &req) {
		return
	}
	if aerr := validateBatch(&req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	// Resolve and parse every spec before admitting anything: a malformed
	// spec fails the whole batch with nothing queued, not a half-admitted
	// matrix. Each spec is parsed and canonicalised once; its cells share
	// the system and the canonical form.
	type parsedSpec struct {
		text  string
		sys   *model.System
		canon []byte
	}
	specs := make([]parsedSpec, len(req.Specs))
	var warnings []string
	for i, ref := range req.Specs {
		probe := JobRequest{Spec: ref.Spec, SpecName: ref.SpecName}
		if aerr := s.validateJob(&probe); aerr != nil {
			s.writeAPIError(w, admitErrorf(aerr.status, "specs[%d]: %s", i, aerr.msg))
			return
		}
		sys, warns, err := specio.ReadWarnString(probe.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "specs[%d]: spec: %v", i, err)
			return
		}
		specs[i] = parsedSpec{text: probe.Spec, sys: sys, canon: s.canonicalSpec(sys)}
		for _, wn := range warns {
			warnings = append(warnings, fmt.Sprintf("specs[%d]: %s", i, wn.String()))
		}
	}

	options := req.Options
	if len(options) == 0 {
		options = []JobRequest{{}}
	}
	// Expansion: one cell per (spec, seed, option), collapsing cells that
	// share a content-address. A cell whose admission is refused (shed
	// deadline, full queue, draining mid-batch) is recorded and skipped;
	// the rest of the batch still runs.
	b := &Batch{Created: time.Now()}
	seen := make(map[string]string) // cache key → owning job ID
	cacheHits, dupes, rejected := 0, 0, 0
	for si := range specs {
		for _, seed := range req.Seeds {
			for oi := range options {
				cell := BatchCell{
					Cell: len(b.Cells), Spec: si, Seed: seed, Option: oi,
					System: specs[si].sys.App.Name,
				}
				creq := cellRequest(options[oi], specs[si].text, seed)
				if aerr := s.validateJob(&creq); aerr != nil {
					cell.Rejected = aerr.msg
					rejected++
					b.Cells = append(b.Cells, cell)
					continue
				}
				key := s.cacheKey(specs[si].canon, &creq)
				if owner, dup := seen[key]; dup {
					cell.Job, cell.Duplicate = owner, true
					dupes++
				} else if j, hit, aerr := s.submit(creq, specs[si].sys, key); aerr != nil {
					cell.Rejected = aerr.msg
					rejected++
				} else {
					cell.Job, cell.CacheHit = j.ID, hit
					if hit {
						cacheHits++
					}
					if key != "" {
						seen[key] = j.ID
					}
				}
				b.Cells = append(b.Cells, cell)
			}
		}
	}

	s.mu.Lock()
	s.batchSeq++
	b.ID = batchID(s.batchSeq)
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
	s.batchesGauge.Set(float64(len(s.batches)))
	s.mu.Unlock()
	s.persistBatch(b)

	s.reg.Counter("serve.batches_submitted").Inc()
	s.reg.Counter("serve.batch_cells").Add(uint64(len(b.Cells)))
	s.reg.Counter("serve.batch_dedup").Add(uint64(dupes))
	s.reg.Counter("serve.batch_cache_hits").Add(uint64(cacheHits))
	s.reg.Counter("serve.batch_rejected").Add(uint64(rejected))

	view := BatchSubmitView{
		BatchStatusView: s.batchStatus(b),
		Cells:           b.Cells,
		Warnings:        warnings,
	}
	w.Header().Set("Location", "/v1/batches/"+b.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// batchStatus joins a batch's immutable cells with the live job table into
// the aggregate progress view.
func (s *Server) batchStatus(b *Batch) BatchStatusView {
	v := BatchStatusView{
		ID:      b.ID,
		Created: b.Created.UTC().Format(time.RFC3339Nano),
		Cells:   len(b.Cells),
		States:  make(map[string]int),
	}
	jobs := make(map[string]bool) // job ID → seen
	for _, c := range b.Cells {
		switch {
		case c.Rejected != "":
			v.Rejected++
		case c.Duplicate:
			v.Duplicates++
		}
		if c.CacheHit {
			v.CacheHits++
		}
		if c.Job == "" || jobs[c.Job] {
			continue
		}
		jobs[c.Job] = true
		v.Jobs++
		s.mu.Lock()
		j := s.jobs[c.Job]
		s.mu.Unlock()
		if j == nil {
			// The job table lost a referenced job (foreign restart with a
			// wiped data dir); surface it rather than undercounting.
			v.States["missing"]++
			continue
		}
		state := j.snapshot().State
		v.States[string(state)]++
		if state.Terminal() {
			v.Done++
		}
	}
	v.Total = v.Jobs
	v.Complete = v.Done == v.Total
	return v
}

func (s *Server) lookupBatch(w http.ResponseWriter, r *http.Request) *Batch {
	id := r.PathValue("id")
	if !validBatchID(id) {
		writeError(w, http.StatusNotFound, "no such batch %q", id)
		return nil
	}
	s.mu.Lock()
	b := s.batches[id]
	s.mu.Unlock()
	if b == nil {
		writeError(w, http.StatusNotFound, "no such batch %q", id)
		return nil
	}
	return b
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(w, r)
	if b == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.batchStatus(b))
}

func (s *Server) handleBatchResults(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(w, r)
	if b == nil {
		return
	}
	cursor, err := queryInt(r, "cursor", 0)
	if err == nil && cursor < 0 {
		err = fmt.Errorf("negative")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "cursor: %v", err)
		return
	}
	limit, err := queryInt(r, "limit", 50)
	if err == nil && (limit <= 0 || limit > 500) {
		err = fmt.Errorf("must be in [1,500]")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "limit: %v", err)
		return
	}
	view := BatchResultsView{ID: b.ID, Results: make([]BatchCellResult, 0, limit)}
	for i := cursor; i < len(b.Cells) && len(view.Results) < limit; i++ {
		cell := b.Cells[i]
		entry := BatchCellResult{BatchCell: cell}
		if cell.Job != "" {
			s.mu.Lock()
			j := s.jobs[cell.Job]
			s.mu.Unlock()
			if j != nil {
				snap := j.snapshot()
				entry.State, entry.Cached = snap.State, snap.Cached
				if snap.State.Terminal() {
					entry.Result = s.resultDoc(j)
				}
			}
		}
		view.Results = append(view.Results, entry)
	}
	if next := cursor + len(view.Results); next < len(b.Cells) {
		view.Next = strconv.Itoa(next)
	}
	writeJSON(w, http.StatusOK, view)
}

// batchesDir is where single-node batches persist; fleet-mode batch
// records are node-local and in-memory only (their child jobs, the
// durable part, live in the fleet directory).
func (s *Server) batchesDir() string {
	if s.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, "batches")
}

// persistBatch stores the immutable batch record; failures are logged, not
// fatal (the batch merely loses restart durability, like job manifests).
func (s *Server) persistBatch(b *Batch) {
	dir := s.batchesDir()
	if dir == "" {
		return
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = durable.Mkdir(s.cfg.FS, dir)
	}
	if err == nil {
		err = durable.WriteAtomic(s.cfg.FS, filepath.Join(dir, b.ID+".json"), data)
	}
	if err != nil {
		s.logf("serve: batch %s: persist: %v", b.ID, err)
	}
}

// recoverBatches reloads persisted batch records at startup. Corrupt
// records are skipped with a log line: the child jobs recover on their own
// from their manifests either way.
func (s *Server) recoverBatches() {
	dir := s.batchesDir()
	if dir == "" {
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("serve: recover batches: %v", err)
		}
		return
	}
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		id := strings.TrimSuffix(name, ".json")
		if id == name || !validBatchID(id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.logf("serve: recover batch %s: %v", name, err)
			continue
		}
		var b Batch
		dec := json.NewDecoder(bytesReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil || b.ID != id {
			s.logf("serve: recover batch %s: corrupt record (err %v); skipped", name, err)
			continue
		}
		s.batches[b.ID] = &b
		s.batchOrder = append(s.batchOrder, b.ID)
		if n, err := strconv.Atoi(id[1:]); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	if s.batchSeq < maxSeq {
		s.batchSeq = maxSeq
	}
	s.batchesGauge.Set(float64(len(s.batches)))
}
