package specio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/gen"
	"momosyn/internal/model"
)

// readReference is the bufio.Scanner, strings.Fields and map-per-line
// reader that ReadWarnBytes replaced, kept as the reference the
// differential checks compare against (TestReadMatchesReference,
// FuzzReadReference). It differs from the reader it copies in one way:
// it walks a line's attributes in line order rather than in map order,
// so which bad attribute it reports no longer depends on map iteration.
func readReference(r io.Reader) (*model.System, []Warning, error) {
	p := &refParser{
		types:  make(map[string]*refTypeDecl),
		peSet:  make(map[string]bool),
		clSet:  make(map[string]bool),
		modeBy: make(map[string]*refModeDecl),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		p.line = line
		if err := p.directive(fields); err != nil {
			return nil, nil, fmt.Errorf("specio: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the offending line (e.g. one longer than
		// the buffer), which is the line after the last accepted one.
		return nil, nil, fmt.Errorf("specio: line %d: %w", line+1, err)
	}
	return p.finish()
}

// refParser accumulates declarations before emitting them through the model
// builder (types need all their impls collected first).
type refParser struct {
	name      string
	pes       []refPEDecl
	cls       []refCLDecl
	typeOrder []string
	types     map[string]*refTypeDecl
	modes     []*refModeDecl
	trans     []refTransDecl
	// peSet/clSet/modeBy index declared names so reference and duplicate
	// errors are caught while the line number is still known.
	peSet  map[string]bool
	clSet  map[string]bool
	modeBy map[string]*refModeDecl
	// line is the 1-based number of the line currently being parsed; mode
	// and transition declarations record it for whole-spec lints.
	line int
}

type refPEDecl struct{ pe model.PE }

type refCLDecl struct {
	cl  model.CL
	pes []string
}

type refTypeDecl struct {
	impls []model.ImplSpec
}

type refModeDecl struct {
	name         string
	line         int
	prob, period float64
	tasks        []refTaskDecl
	edges        []refEdgeDecl
	taskSet      map[string]bool
}

type refTaskDecl struct {
	name, typ string
	deadline  float64
}

type refEdgeDecl struct {
	src, dst string
	bytes    float64
}

func (p *refParser) directive(fields []string) error {
	switch fields[0] {
	case "system":
		if len(fields) != 2 {
			return fmt.Errorf("system needs exactly one name")
		}
		p.name = fields[1]
		return nil
	case "pe":
		return p.parsePE(fields)
	case "cl":
		return p.parseCL(fields)
	case "type":
		if len(fields) != 2 {
			return fmt.Errorf("type needs exactly one name")
		}
		if _, dup := p.types[fields[1]]; dup {
			return fmt.Errorf("duplicate type %q", fields[1])
		}
		p.types[fields[1]] = &refTypeDecl{}
		p.typeOrder = append(p.typeOrder, fields[1])
		return nil
	case "impl":
		return p.parseImpl(fields)
	case "mode":
		return p.parseMode(fields)
	case "task":
		return p.parseTask(fields)
	case "edge":
		return p.parseEdge(fields)
	case "transition":
		return p.parseTransition(fields)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// refKV is one key=value field of a line.
type refKV struct{ key, val string }

// refKVs parses trailing key=value fields, in line order. The map only
// detects duplicates: the attributes are walked in the order the line
// gives them, so the first bad one in line order is the one reported
// (the parser this copies walked the map, in random order).
func refKVs(fields []string) ([]refKV, error) {
	seen := make(map[string]bool, len(fields))
	out := make([]refKV, 0, len(fields))
	for _, f := range fields {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return nil, fmt.Errorf("malformed attribute %q (want key=value)", f)
		}
		key := f[:i]
		if seen[key] {
			return nil, fmt.Errorf("duplicate attribute %q", key)
		}
		seen[key] = true
		out = append(out, refKV{key, f[i+1:]})
	}
	return out, nil
}

func (p *refParser) parsePE(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("pe needs a name and attributes")
	}
	attrs, err := refKVs(fields[2:])
	if err != nil {
		return err
	}
	if p.peSet[fields[1]] {
		return fmt.Errorf("duplicate pe %q", fields[1])
	}
	pe := model.PE{Name: fields[1], Vmax: 3.3, Vt: 0.8}
	for _, kv := range attrs {
		k, v := kv.key, kv.val
		switch k {
		case "class":
			switch strings.ToLower(v) {
			case "gpp":
				pe.Class = model.GPP
			case "asip":
				pe.Class = model.ASIP
			case "asic":
				pe.Class = model.ASIC
			case "fpga":
				pe.Class = model.FPGA
			default:
				return fmt.Errorf("unknown PE class %q", v)
			}
		case "vmax":
			if pe.Vmax, err = strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("vmax: %w", err)
			}
		case "vt":
			if pe.Vt, err = strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("vt: %w", err)
			}
		case "area":
			if pe.Area, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("area: %w", err)
			}
		case "static":
			if pe.StaticPower, err = ParsePower(v); err != nil {
				return err
			}
		case "reconfig":
			if pe.ReconfigTime, err = ParseTime(v); err != nil {
				return err
			}
		case "levels":
			pe.DVS = true
			for _, s := range strings.Split(v, ",") {
				lv, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("levels: %w", err)
				}
				pe.Levels = append(pe.Levels, lv)
			}
			sort.Float64s(pe.Levels)
		default:
			return fmt.Errorf("unknown pe attribute %q", k)
		}
	}
	p.pes = append(p.pes, refPEDecl{pe: pe})
	p.peSet[pe.Name] = true
	return nil
}

func (p *refParser) parseCL(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("cl needs a name and attributes")
	}
	attrs, err := refKVs(fields[2:])
	if err != nil {
		return err
	}
	if p.clSet[fields[1]] {
		return fmt.Errorf("duplicate cl %q", fields[1])
	}
	d := refCLDecl{cl: model.CL{Name: fields[1]}}
	for _, kv := range attrs {
		k, v := kv.key, kv.val
		switch k {
		case "bw":
			if d.cl.BytesPerSec, err = ParseBandwidth(v); err != nil {
				return err
			}
		case "active":
			if d.cl.PowerActive, err = ParsePower(v); err != nil {
				return err
			}
		case "static":
			if d.cl.StaticPower, err = ParsePower(v); err != nil {
				return err
			}
		case "pes":
			d.pes = strings.Split(v, ",")
			for _, n := range d.pes {
				if !p.peSet[n] {
					return fmt.Errorf("cl %q attaches undeclared pe %q", d.cl.Name, n)
				}
			}
		default:
			return fmt.Errorf("unknown cl attribute %q", k)
		}
	}
	p.cls = append(p.cls, d)
	p.clSet[d.cl.Name] = true
	return nil
}

func (p *refParser) parseImpl(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("impl needs: impl TYPE PE key=value...")
	}
	td, ok := p.types[fields[1]]
	if !ok {
		return fmt.Errorf("impl for undeclared type %q", fields[1])
	}
	if !p.peSet[fields[2]] {
		return fmt.Errorf("impl of type %q on undeclared pe %q", fields[1], fields[2])
	}
	attrs, err := refKVs(fields[3:])
	if err != nil {
		return err
	}
	im := model.ImplSpec{PE: fields[2]}
	for _, kv := range attrs {
		k, v := kv.key, kv.val
		switch k {
		case "time":
			if im.Time, err = ParseTime(v); err != nil {
				return err
			}
		case "power":
			if im.Power, err = ParsePower(v); err != nil {
				return err
			}
		case "area":
			if im.Area, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("area: %w", err)
			}
		default:
			return fmt.Errorf("unknown impl attribute %q", k)
		}
	}
	td.impls = append(td.impls, im)
	return nil
}

func (p *refParser) parseMode(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("mode needs a name and attributes")
	}
	attrs, err := refKVs(fields[2:])
	if err != nil {
		return err
	}
	if p.modeBy[fields[1]] != nil {
		return fmt.Errorf("duplicate mode %q", fields[1])
	}
	d := &refModeDecl{name: fields[1], line: p.line, taskSet: make(map[string]bool)}
	for _, kv := range attrs {
		k, v := kv.key, kv.val
		switch k {
		case "prob":
			if d.prob, err = strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("prob: %w", err)
			}
		case "period":
			if d.period, err = ParseTime(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown mode attribute %q", k)
		}
	}
	p.modes = append(p.modes, d)
	p.modeBy[d.name] = d
	return nil
}

func (p *refParser) mode(name string) *refModeDecl { return p.modeBy[name] }

func (p *refParser) parseTask(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("task needs: task MODE NAME key=value...")
	}
	m := p.mode(fields[1])
	if m == nil {
		return fmt.Errorf("task in undeclared mode %q", fields[1])
	}
	attrs, err := refKVs(fields[3:])
	if err != nil {
		return err
	}
	td := refTaskDecl{name: fields[2]}
	for _, kv := range attrs {
		k, v := kv.key, kv.val
		switch k {
		case "type":
			td.typ = v
		case "deadline":
			if td.deadline, err = ParseTime(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown task attribute %q", k)
		}
	}
	if td.typ == "" {
		return fmt.Errorf("task %q needs a type", td.name)
	}
	if _, ok := p.types[td.typ]; !ok {
		return fmt.Errorf("task %q uses undeclared type %q", td.name, td.typ)
	}
	if m.taskSet[td.name] {
		return fmt.Errorf("duplicate task %q in mode %q", td.name, m.name)
	}
	m.tasks = append(m.tasks, td)
	m.taskSet[td.name] = true
	return nil
}

func (p *refParser) parseEdge(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("edge needs: edge MODE SRC DST [bytes=N]")
	}
	m := p.mode(fields[1])
	if m == nil {
		return fmt.Errorf("edge in undeclared mode %q", fields[1])
	}
	ed := refEdgeDecl{src: fields[2], dst: fields[3]}
	if !m.taskSet[ed.src] {
		return fmt.Errorf("edge references undeclared task %q in mode %q", ed.src, m.name)
	}
	if !m.taskSet[ed.dst] {
		return fmt.Errorf("edge references undeclared task %q in mode %q", ed.dst, m.name)
	}
	if len(fields) > 4 {
		attrs, err := refKVs(fields[4:])
		if err != nil {
			return err
		}
		for _, kv := range attrs {
			k, v := kv.key, kv.val
			switch k {
			case "bytes":
				b, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return fmt.Errorf("bytes: %w", err)
				}
				ed.bytes = b
			default:
				return fmt.Errorf("unknown edge attribute %q", k)
			}
		}
	}
	m.edges = append(m.edges, ed)
	return nil
}

func (p *refParser) parseTransition(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("transition needs: transition FROM TO [max=T]")
	}
	td := refTransDecl{from: fields[1], to: fields[2]}
	if p.mode(td.from) == nil {
		return fmt.Errorf("transition from undeclared mode %q", td.from)
	}
	if p.mode(td.to) == nil {
		return fmt.Errorf("transition to undeclared mode %q", td.to)
	}
	if len(fields) > 3 {
		attrs, err := refKVs(fields[3:])
		if err != nil {
			return err
		}
		for _, kv := range attrs {
			k, v := kv.key, kv.val
			switch k {
			case "max":
				mt, err := ParseTime(v)
				if err != nil {
					return err
				}
				if mt <= 0 {
					return fmt.Errorf("transition %s->%s: max=%s is not positive; omit max for an unconstrained transition",
						td.from, td.to, v)
				}
				td.max = mt
			default:
				return fmt.Errorf("unknown transition attribute %q", k)
			}
		}
	}
	p.trans = append(p.trans, td)
	return nil
}

type refTransDecl struct {
	from, to string
	max      float64
}

// finish replays the accumulated declarations through the model builder
// and applies the whole-spec semantic lints.
func (p *refParser) finish() (*model.System, []Warning, error) {
	if p.name == "" {
		p.name = "unnamed"
	}
	var warns []Warning

	// Lint: the mode execution probabilities Ψ must form a distribution.
	// A misscaled vector is normalised with a warning rather than
	// rejected — relative usage ratios are usually what the author meant.
	if len(p.modes) > 0 {
		sum := 0.0
		for _, m := range p.modes {
			sum += m.prob
		}
		if sum > 0 && math.Abs(sum-1) > 1e-6 {
			warns = append(warns, Warning{Line: p.modes[0].line, Msg: fmt.Sprintf(
				"mode execution probabilities sum to %g, not 1; normalising to a distribution", sum)})
			for _, m := range p.modes {
				m.prob /= sum
			}
		}
	}

	b := model.NewBuilder(p.name)
	for _, d := range p.pes {
		b.AddPE(d.pe)
	}
	for _, d := range p.cls {
		b.AddCL(d.cl, d.pes...)
	}
	for _, name := range p.typeOrder {
		b.AddType(name, p.types[name].impls...)
	}
	for _, m := range p.modes {
		b.BeginMode(m.name, m.prob, m.period)
		for _, td := range m.tasks {
			b.AddTask(td.name, td.typ, td.deadline)
		}
		for _, ed := range m.edges {
			b.AddEdge(ed.src, ed.dst, ed.bytes)
		}
	}
	for _, td := range p.trans {
		b.AddTransition(td.from, td.to, td.max)
	}
	sys, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}

	// Lint: every declared mode must be reachable from the initial (first
	// declared) mode when the spec declares a state machine at all.
	if len(p.modes) > 1 && len(p.trans) > 0 {
		reach := sys.App.ReachableFrom(0)
		for i, ok := range reach {
			if !ok {
				m := p.modes[i]
				return nil, nil, fmt.Errorf(
					"specio: line %d: mode %q is unreachable from initial mode %q via the declared transitions",
					m.line, m.name, p.modes[0].name)
			}
		}
	}
	return sys, warns, nil
}

// checkReadReference fails t unless ReadWarnBytes and readReference agree
// on input: the same error text (line numbers included), the same
// warnings, and a system with the same canonical bytes and the same value
// in every field, unexported ones included.
func checkReadReference(t *testing.T, input []byte) {
	t.Helper()
	wantSys, wantWarns, wantErr := readReference(bytes.NewReader(input))
	sys, warns, err := ReadWarnBytes(input)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, reference %v\ninput:\n%.2000s", err, wantErr, input)
	}
	if !reflect.DeepEqual(warns, wantWarns) {
		t.Fatalf("warnings %v, reference %v\ninput:\n%.2000s", warns, wantWarns, input)
	}
	if (sys == nil) != (wantSys == nil) {
		t.Fatalf("system %v, reference %v", sys != nil, wantSys != nil)
	}
	if sys == nil {
		return
	}
	got, err := Canonical(sys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Canonical(wantSys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical form differs from the reference's:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if d := modelDiff("sys", reflect.ValueOf(sys), reflect.ValueOf(wantSys)); d != "" {
		t.Fatalf("system differs from the reference's at %s\ninput:\n%.2000s", d, input)
	}
}

// modelDiff names the first place where x and y differ, or returns "". It
// walks every field, unexported ones included, as reflect.DeepEqual does
// (a nil slice differs from an empty one), except that floats compare by
// their bits, so a NaN equals a NaN parsed from the same text.
func modelDiff(path string, x, y reflect.Value) string {
	switch x.Kind() {
	case reflect.Pointer, reflect.Interface:
		if x.IsNil() || y.IsNil() {
			if x.IsNil() != y.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		if x.Kind() == reflect.Interface && x.Elem().Type() != y.Elem().Type() {
			return path + ": dynamic types differ"
		}
		return modelDiff(path, x.Elem(), y.Elem())
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			if d := modelDiff(path+"."+x.Type().Field(i).Name, x.Field(i), y.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if x.IsNil() != y.IsNil() || x.Len() != y.Len() {
			return fmt.Sprintf("%s: length %d (nil %v) vs %d (nil %v)", path, x.Len(), x.IsNil(), y.Len(), y.IsNil())
		}
		for i := 0; i < x.Len(); i++ {
			if d := modelDiff(fmt.Sprintf("%s[%d]", path, i), x.Index(i), y.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, x.Float(), y.Float())
		}
	case reflect.Int, reflect.Int64:
		if x.Int() != y.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, x.Int(), y.Int())
		}
	case reflect.String:
		if x.String() != y.String() {
			return fmt.Sprintf("%s: %q vs %q", path, x.String(), y.String())
		}
	case reflect.Bool:
		if x.Bool() != y.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, x.Bool(), y.Bool())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %s", path, x.Kind())
	}
	return ""
}

// referenceCorpus is the seed corpus of FuzzReadReference: the FuzzRead
// corpus (the shipped specs among it), the written form of mul1–mul12,
// the smart phone and 20 seeded mmgen instances, lines that split
// differently around each kind of white space, and lines with several bad
// attributes.
func referenceCorpus(tb testing.TB) []string {
	seeds := readCorpus(tb)
	write := func(sys *model.System, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, sys); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.String())
	}
	for i := 1; i <= bench.NumMuls; i++ {
		write(bench.MulSystem(i))
	}
	write(bench.SmartPhone())
	for seed := int64(1); seed <= 20; seed++ {
		write(gen.Generate(gen.NewParams(seed)))
	}
	const tiny = "pe P class=gpp\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=1s\ntask m a type=t\n"
	return append(seeds,
		tiny,
		strings.ReplaceAll(tiny, "\n", "\r\n"),
		strings.ReplaceAll(tiny, " ", "\t \v\f\r"),
		strings.ReplaceAll(tiny, " ", "\u00a0"),
		strings.ReplaceAll(tiny, " ", "\u0085"),
		strings.ReplaceAll(tiny, " ", "\u2003\u3000"),
		strings.ReplaceAll(tiny, " ", "\u200b"), // not space: one field
		strings.ReplaceAll(tiny, "P", "P\xc2"),  // a truncated rune, not space
		strings.ReplaceAll(tiny, "P", "\u00e9P\xff"),
		strings.ReplaceAll(tiny, "\n", " # comment\n"),
		tiny+"task m b type=t deadline=1ms deadline=2ms\n",
		tiny+"task m b type=t deadline=x bogus=1\n",
		tiny+"task m b bogus=1 type=t\n",
		tiny+"task m b type=\n",
		tiny+"task m a type=t\n",
		tiny+"edge m a a bytes=1 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 a=9\n",
		tiny+"edge m a b\n",
		tiny+"edge m a a bytes=-\n",
		tiny+"transition m m max=0s\n",
		tiny+"cl B bw=1MB/s pes=P,Q\n",
		tiny+"cl B bw=1MB/s pes=\n",
		tiny+"mode n prob=0.5 period=1s bogus\n",
		tiny+"mode m prob=0.5 period=1s\n",
		"pe P class=gpp vmax=x vt=y area=z",
		"pe P class=gpp levels=1.2,,3.3",
		"pe P class=GPP levels=3.3,1.2,nan",
		"pe P class=\u212asic area=1",
		"pe P class=gpp vmax=1 vmax=2 vt=y",
		"pe P =1",
		"system",
		"system a\nsystem b\npe P class=gpp\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=nan period=1s\ntask m a type=t\n",
	)
}

// TestReadMatchesReference compares ReadWarnBytes with readReference over
// the FuzzReadReference corpus, 50 mmgen instances and a few hundred
// mangled copies of the shipped specs, which exercise the error paths.
func TestReadMatchesReference(t *testing.T) {
	inputs := referenceCorpus(t)
	for seed := int64(21); seed <= 50; seed++ {
		sys, err := gen.Generate(gen.NewParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, sys); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, buf.String())
	}
	specs := shippedSpecs(t)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		lines := strings.Split(specs[rng.Intn(len(specs))], "\n")
		for k := 0; k < 1+rng.Intn(3); k++ {
			i := rng.Intn(len(lines))
			switch rng.Intn(6) {
			case 0:
				if len(lines[i]) > 0 {
					lines[i] = lines[i][:rng.Intn(len(lines[i]))]
				}
			case 1:
				lines[i] += " " + lines[rng.Intn(len(lines))]
			case 2:
				lines[i] = strings.Replace(lines[i], "=", " ", 1)
			case 3:
				lines[i] = strings.ToUpper(lines[i])
			case 4:
				j := rng.Intn(len(lines))
				lines[i], lines[j] = lines[j], lines[i]
			case 5:
				lines = append(lines[:i], lines[i+1:]...)
			}
		}
		inputs = append(inputs, strings.Join(lines, "\n"))
	}
	for _, in := range inputs {
		checkReadReference(t, []byte(in))
	}
}
