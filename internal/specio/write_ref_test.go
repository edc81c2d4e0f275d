package specio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/gen"
	"momosyn/internal/model"
)

// writeFmtReference is the fmt-based Write that appendSpec replaced, kept
// as the reference the byte-identity checks compare against.
func writeFmtReference(w io.Writer, sys *model.System) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "system %s\n\n", sys.App.Name)
	for _, pe := range sys.Arch.PEs {
		fmt.Fprintf(bw, "pe %s class=%s vmax=%g vt=%g", pe.Name, strings.ToLower(pe.Class.String()), pe.Vmax, pe.Vt)
		if pe.Area > 0 {
			fmt.Fprintf(bw, " area=%d", pe.Area)
		}
		if pe.StaticPower > 0 {
			fmt.Fprintf(bw, " static=%s", FormatPower(pe.StaticPower))
		}
		if pe.ReconfigTime > 0 {
			fmt.Fprintf(bw, " reconfig=%s", FormatTime(pe.ReconfigTime))
		}
		if pe.DVS {
			strs := make([]string, len(pe.Levels))
			for i, l := range pe.Levels {
				strs[i] = strconv.FormatFloat(l, 'g', -1, 64)
			}
			fmt.Fprintf(bw, " levels=%s", strings.Join(strs, ","))
		}
		fmt.Fprintln(bw)
	}
	for _, cl := range sys.Arch.CLs {
		names := make([]string, len(cl.PEs))
		for i, pid := range cl.PEs {
			names[i] = sys.Arch.PE(pid).Name
		}
		fmt.Fprintf(bw, "cl %s bw=%s", cl.Name, FormatBandwidth(cl.BytesPerSec))
		if cl.PowerActive > 0 {
			fmt.Fprintf(bw, " active=%s", FormatPower(cl.PowerActive))
		}
		if cl.StaticPower > 0 {
			fmt.Fprintf(bw, " static=%s", FormatPower(cl.StaticPower))
		}
		fmt.Fprintf(bw, " pes=%s\n", strings.Join(names, ","))
	}
	fmt.Fprintln(bw)
	for _, tt := range sys.Lib.Types {
		fmt.Fprintf(bw, "type %s\n", tt.Name)
		for _, im := range tt.Impls {
			fmt.Fprintf(bw, "impl %s %s time=%s power=%s",
				tt.Name, sys.Arch.PE(im.PE).Name, FormatTime(im.Time), FormatPower(im.Power))
			if im.Area > 0 {
				fmt.Fprintf(bw, " area=%d", im.Area)
			}
			fmt.Fprintln(bw)
		}
	}
	fmt.Fprintln(bw)
	for _, m := range sys.App.Modes {
		fmt.Fprintf(bw, "mode %s prob=%g period=%s\n", m.Name, m.Prob, FormatTime(m.Period))
		for _, task := range m.Graph.Tasks {
			fmt.Fprintf(bw, "task %s %s type=%s", m.Name, task.Name, sys.Lib.Type(task.Type).Name)
			if task.Deadline > 0 {
				fmt.Fprintf(bw, " deadline=%s", FormatTime(task.Deadline))
			}
			fmt.Fprintln(bw)
		}
		for _, e := range m.Graph.Edges {
			fmt.Fprintf(bw, "edge %s %s %s bytes=%g\n",
				m.Name, m.Graph.Task(e.Src).Name, m.Graph.Task(e.Dst).Name, e.Bytes)
		}
	}
	fmt.Fprintln(bw)
	for _, tr := range sys.App.Transitions {
		fmt.Fprintf(bw, "transition %s %s", sys.App.Mode(tr.From).Name, sys.App.Mode(tr.To).Name)
		if tr.MaxTime > 0 {
			fmt.Fprintf(bw, " max=%s", FormatTime(tr.MaxTime))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// checkWriteReference fails t unless Write and Canonical emit the bytes of
// the fmt-based reference for sys.
func checkWriteReference(t *testing.T, sys *model.System) {
	t.Helper()
	var want, got bytes.Buffer
	if err := writeFmtReference(&want, sys); err != nil {
		t.Fatal(err)
	}
	if err := Write(&got, sys); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from the fmt reference:\n--- got\n%s\n--- want\n%s", got.Bytes(), want.Bytes())
	}
	var wantCanon bytes.Buffer
	if err := writeFmtReference(&wantCanon, sortTransitions(sys)); err != nil {
		t.Fatal(err)
	}
	canon, err := Canonical(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, wantCanon.Bytes()) {
		t.Fatalf("Canonical differs from the fmt reference:\n--- got\n%s\n--- want\n%s", canon, wantCanon.Bytes())
	}
}

// TestWriteMatchesFmtReference compares Write and Canonical with the
// fmt-based reference byte for byte over every shipped spec and the rest
// of the FuzzCanonical corpus, the mmgen benchmarks (mul1–mul12 and the
// smart phone) and 50 seeded mmgen instances.
func TestWriteMatchesFmtReference(t *testing.T) {
	var systems []*model.System
	for _, text := range canonicalCorpus(t) {
		sys, _, err := ReadWarnBytes([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for i := 1; i <= bench.NumMuls; i++ {
		sys, err := bench.MulSystem(i)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	phone, err := bench.SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, phone)
	for seed := int64(1); seed <= 50; seed++ {
		sys, err := gen.Generate(gen.NewParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for _, sys := range systems {
		checkWriteReference(t, sys)
	}
}
