package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// manifestReference is the manifest writer renderManifest replaced:
// json.MarshalIndent of the manifest struct. Recovery and fleet adoption
// decode that struct, and the on-disk layout is its encoding.
func manifestReference(j *Job, snap jobSnapshot, node string, epoch int) ([]byte, error) {
	m := manifest{
		ID:          j.ID,
		Request:     j.Request,
		System:      j.system,
		State:       snap.State,
		Error:       snap.Err,
		Created:     snap.Created,
		Started:     snap.Started,
		Finished:    snap.Finished,
		ResumedFrom: snap.ResumedFrom,
		Attempts:    snap.Attempts,
		Node:        node,
		Epoch:       epoch,
		Cached:      snap.Cached,
	}
	if !snap.NotBefore.IsZero() {
		nb := snap.NotBefore
		m.NotBefore = &nb
	}
	return json.MarshalIndent(&m, "", "  ")
}

// TestManifestWriterMatchesMarshal pins renderManifest byte for byte to
// json.MarshalIndent of the manifest struct, in every state and with
// every optional field (fleet node and epoch, not_before, attempts,
// resumed_from, cached, error), over requests and strings that need
// every escape jsonw.AppendString writes. Each job writes its manifests in lifecycle order, so the
// request encoding kept between writes is exercised too.
func TestManifestWriterMatchesMarshal(t *testing.T) {
	yes := true
	no := false
	zone := time.FixedZone("UTC+5:30", 5*3600+30*60)
	created := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	requests := []JobRequest{
		{Spec: "system s\n\npe cpu class=gpp vmax=3.3 vt=0.8\n", Seed: 7,
			GA: GAParams{PopSize: 2, MaxGenerations: 5, Stagnation: 5}},
		{Spec: "system <&>\n\"quoted\" \\ back\ttab   é \xff\x00 end\r\b\f\x1f\x7f \u2028\u2029 \xe2\x80", SpecName: "mul1",
			DVS: true, NeglectProbabilities: true, Seed: -3, StallWindow: 4,
			Certify: &no, DeadlineMS: 1500, Failpoint: "fail:2"},
		{Spec: "x", Certify: &yes},
		{},
	}
	systems := []string{"", "servetest", "odd <name> & \"co\""}
	errs := []string{"", "attempt died with the server (last error: none recorded)", "bad \"spec\" <line 3>\n\tand   more \xfe"}
	lifecycle := []State{StateQueued, StateRunning, StateQueued, StateRunning, StateDone}
	terminals := []State{StateDone, StateFailed, StateCancelled, StateQuarantined}
	fleet := []struct {
		node  string
		epoch int
	}{{"", 0}, {"nodeA", 0}, {"node-12.b_c", 3}}

	checked := 0
	for ri, req := range requests {
		for si, system := range systems {
			for _, f := range fleet {
				for ti, terminal := range terminals {
					j := &Job{ID: jobID(ri*100 + si*10 + ti + 1), Request: req, system: system}
					states := append(append([]State(nil), lifecycle[:len(lifecycle)-1]...), terminal)
					for step, st := range states {
						snap := jobSnapshot{
							State:   st,
							Err:     errs[(step+ti)%len(errs)],
							Created: created.In(zone),
						}
						if st != StateQueued {
							snap.Started = created.Add(time.Duration(step) * time.Second)
						}
						if st.Terminal() {
							snap.Finished = created.Add(time.Minute).UTC()
							snap.Cached = ti%2 == 1
						}
						if step >= 2 {
							snap.Attempts = step - 1
							snap.ResumedFrom = 5 * step
						}
						if st == StateQueued && step > 0 {
							snap.NotBefore = created.Add(2 * time.Second)
						}
						want, err := manifestReference(j, snap, f.node, f.epoch)
						if err != nil {
							t.Fatal(err)
						}
						got, err := renderManifest(j, snap, f.node, f.epoch)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("job %s step %d (%s, node %q epoch %d): manifest differs\n--- got\n%s\n--- want\n%s",
								j.ID, step, st, f.node, f.epoch, got, want)
						}
						checked++
					}
					if j.manifestRequest != nil {
						t.Fatalf("job %s kept its request encoding past the terminal manifest", j.ID)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no manifest compared")
	}
}
