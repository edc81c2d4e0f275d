// Package specio reads and writes multi-mode system specifications in a
// line-oriented text format, so problem instances can be generated,
// inspected, edited and fed to the synthesis tools as plain files.
//
// The format is keyword-based with one declaration per line; '#' starts a
// comment. Quantities carry units (s/ms/us/ns, W/mW/uW, B/s, kB/s, MB/s).
//
//	system smartphone
//	pe GPP class=gpp vmax=3.3 vt=0.8 static=0.12mW levels=1.2,1.8,2.5,3.3
//	pe ASIC1 class=asic area=800 vmax=3.3 vt=0.8 static=0.25mW
//	cl BUS bw=10MB/s active=1mW static=0.06mW pes=GPP,ASIC1
//	type FFT
//	impl FFT GPP time=420us power=32mW
//	impl FFT ASIC1 time=10.5us power=51.2mW area=320
//	mode rlc prob=0.74 period=50ms
//	task rlc burst type=FFT deadline=25ms
//	edge rlc burst equalize bytes=312
//	transition rlc gsm max=25ms
//
// Declarations may appear in any order as long as referenced entities are
// declared first (PEs before types and links, types before tasks, modes
// before their tasks/edges, modes before transitions).
package specio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"momosyn/internal/model"
)

// Warning is a non-fatal semantic lint finding, carrying the 1-based line
// number of the offending declaration.
type Warning struct {
	Line int
	Msg  string
}

// String renders the warning in the same line-prefixed form as errors.
func (w Warning) String() string { return fmt.Sprintf("specio: line %d: warning: %s", w.Line, w.Msg) }

// Read parses a specification and returns the validated system, discarding
// lint warnings. Every parse error carries the 1-based input line number;
// only whole-spec semantic errors (graph cycles, ...) are reported without
// one. It is a thin wrapper over ReadWarn, just as ReadBytes is over
// ReadWarnBytes for callers holding the specification in memory.
func Read(r io.Reader) (*model.System, error) {
	sys, _, err := ReadWarn(r)
	return sys, err
}

// ReadBytes parses a specification held in memory (an uploaded request
// body, an embedded spec, ...), discarding lint warnings. It is equivalent
// to Read over a reader of data, with no temporary file involved.
func ReadBytes(data []byte) (*model.System, error) {
	sys, _, err := ReadWarnBytes(data)
	return sys, err
}

// ReadWarnBytes parses a specification held in memory and additionally
// returns semantic lint warnings, with the same normalisation and
// rejection rules as ReadWarn.
func ReadWarnBytes(data []byte) (*model.System, []Warning, error) {
	return ReadWarn(bytes.NewReader(data))
}

// ReadWarn parses a specification and additionally returns semantic lint
// warnings. Mode execution probabilities that do not sum to ~1 are
// normalised with a warning (the OMSM semantics need a distribution, and a
// misscaled Ψ would silently skew the Eq. (1) objective); unreachable
// modes and transitions with non-positive tTmax are rejected as errors.
func ReadWarn(r io.Reader) (*model.System, []Warning, error) {
	p := &parser{
		types:  make(map[string]*typeDecl),
		peSet:  make(map[string]bool),
		clSet:  make(map[string]bool),
		modeBy: make(map[string]*modeDecl),
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

// parser accumulates declarations before emitting them through the model
// builder (types need all their impls collected first).
type parser struct {
	name      string
	pes       []peDecl
	cls       []clDecl
	typeOrder []string
	types     map[string]*typeDecl
	modes     []*modeDecl
	trans     []transDecl
	// peSet/clSet/modeBy index declared names so reference and duplicate
	// errors are caught while the line number is still known.
	peSet  map[string]bool
	clSet  map[string]bool
	modeBy map[string]*modeDecl
	// line is the 1-based number of the line currently being parsed; mode
	// and transition declarations record it for whole-spec lints.
	line int
}

type peDecl struct{ pe model.PE }

type clDecl struct {
	cl  model.CL
	pes []string
}

type typeDecl struct {
	impls []model.ImplSpec
}

type modeDecl struct {
	name         string
	line         int
	prob, period float64
	tasks        []taskDecl
	edges        []edgeDecl
	taskSet      map[string]bool
}

type taskDecl struct {
	name, typ string
	deadline  float64
}

type edgeDecl struct {
	src, dst string
	bytes    float64
}

func (p *parser) directive(fields []string) error {
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
		p.types[fields[1]] = &typeDecl{}
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

// kvs parses trailing key=value fields.
func kvs(fields []string) (map[string]string, error) {
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return nil, fmt.Errorf("malformed attribute %q (want key=value)", f)
		}
		key := f[:i]
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate attribute %q", key)
		}
		out[key] = f[i+1:]
	}
	return out, nil
}

func (p *parser) parsePE(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("pe needs a name and attributes")
	}
	attrs, err := kvs(fields[2:])
	if err != nil {
		return err
	}
	if p.peSet[fields[1]] {
		return fmt.Errorf("duplicate pe %q", fields[1])
	}
	pe := model.PE{Name: fields[1], Vmax: 3.3, Vt: 0.8}
	for k, v := range attrs {
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
	p.pes = append(p.pes, peDecl{pe: pe})
	p.peSet[pe.Name] = true
	return nil
}

func (p *parser) parseCL(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("cl needs a name and attributes")
	}
	attrs, err := kvs(fields[2:])
	if err != nil {
		return err
	}
	if p.clSet[fields[1]] {
		return fmt.Errorf("duplicate cl %q", fields[1])
	}
	d := clDecl{cl: model.CL{Name: fields[1]}}
	for k, v := range attrs {
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

func (p *parser) parseImpl(fields []string) error {
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
	attrs, err := kvs(fields[3:])
	if err != nil {
		return err
	}
	im := model.ImplSpec{PE: fields[2]}
	for k, v := range attrs {
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

func (p *parser) parseMode(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("mode needs a name and attributes")
	}
	attrs, err := kvs(fields[2:])
	if err != nil {
		return err
	}
	if p.modeBy[fields[1]] != nil {
		return fmt.Errorf("duplicate mode %q", fields[1])
	}
	d := &modeDecl{name: fields[1], line: p.line, taskSet: make(map[string]bool)}
	for k, v := range attrs {
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

func (p *parser) mode(name string) *modeDecl { return p.modeBy[name] }

func (p *parser) parseTask(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("task needs: task MODE NAME key=value...")
	}
	m := p.mode(fields[1])
	if m == nil {
		return fmt.Errorf("task in undeclared mode %q", fields[1])
	}
	attrs, err := kvs(fields[3:])
	if err != nil {
		return err
	}
	td := taskDecl{name: fields[2]}
	for k, v := range attrs {
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

func (p *parser) parseEdge(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("edge needs: edge MODE SRC DST [bytes=N]")
	}
	m := p.mode(fields[1])
	if m == nil {
		return fmt.Errorf("edge in undeclared mode %q", fields[1])
	}
	ed := edgeDecl{src: fields[2], dst: fields[3]}
	if !m.taskSet[ed.src] {
		return fmt.Errorf("edge references undeclared task %q in mode %q", ed.src, m.name)
	}
	if !m.taskSet[ed.dst] {
		return fmt.Errorf("edge references undeclared task %q in mode %q", ed.dst, m.name)
	}
	if len(fields) > 4 {
		attrs, err := kvs(fields[4:])
		if err != nil {
			return err
		}
		for k, v := range attrs {
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

func (p *parser) parseTransition(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("transition needs: transition FROM TO [max=T]")
	}
	td := transDecl{from: fields[1], to: fields[2]}
	if p.mode(td.from) == nil {
		return fmt.Errorf("transition from undeclared mode %q", td.from)
	}
	if p.mode(td.to) == nil {
		return fmt.Errorf("transition to undeclared mode %q", td.to)
	}
	if len(fields) > 3 {
		attrs, err := kvs(fields[3:])
		if err != nil {
			return err
		}
		for k, v := range attrs {
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

type transDecl struct {
	from, to string
	max      float64
}

// finish replays the accumulated declarations through the model builder
// and applies the whole-spec semantic lints.
func (p *parser) finish() (*model.System, []Warning, error) {
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

// Write emits the canonical text form of the system. Reading the output
// back reproduces an identical specification.
func Write(w io.Writer, sys *model.System) error {
	_, err := w.Write(appendSpec(nil, sys))
	return err
}

// appendSpec appends the text form of sys to b. It builds the text with
// strconv appends rather than fmt; %g and strconv's shortest 'g' form are
// the same digits, so the bytes are those of the fmt rendering it
// replaces, which the canonical form (and every cache key) depends on
// (TestWriteMatchesFmtReference and FuzzWriteReference pin this).
func appendSpec(b []byte, sys *model.System) []byte {
	b = append(b, "system "...)
	b = append(b, sys.App.Name...)
	b = append(b, "\n\n"...)
	for _, pe := range sys.Arch.PEs {
		b = append(b, "pe "...)
		b = append(b, pe.Name...)
		b = append(b, " class="...)
		b = append(b, strings.ToLower(pe.Class.String())...)
		b = append(b, " vmax="...)
		b = appendG(b, pe.Vmax)
		b = append(b, " vt="...)
		b = appendG(b, pe.Vt)
		if pe.Area > 0 {
			b = append(b, " area="...)
			b = strconv.AppendInt(b, int64(pe.Area), 10)
		}
		if pe.StaticPower > 0 {
			b = append(b, " static="...)
			b = appendUnit(b, pe.StaticPower, powerUnits)
		}
		if pe.ReconfigTime > 0 {
			b = append(b, " reconfig="...)
			b = appendUnit(b, pe.ReconfigTime, timeUnits)
		}
		if pe.DVS {
			b = append(b, " levels="...)
			for i, l := range pe.Levels {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendG(b, l)
			}
		}
		b = append(b, '\n')
	}
	for _, cl := range sys.Arch.CLs {
		b = append(b, "cl "...)
		b = append(b, cl.Name...)
		b = append(b, " bw="...)
		b = appendUnit(b, cl.BytesPerSec, bandwidthUnits)
		if cl.PowerActive > 0 {
			b = append(b, " active="...)
			b = appendUnit(b, cl.PowerActive, powerUnits)
		}
		if cl.StaticPower > 0 {
			b = append(b, " static="...)
			b = appendUnit(b, cl.StaticPower, powerUnits)
		}
		b = append(b, " pes="...)
		for i, pid := range cl.PEs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, sys.Arch.PE(pid).Name...)
		}
		b = append(b, '\n')
	}
	b = append(b, '\n')
	for _, tt := range sys.Lib.Types {
		b = append(b, "type "...)
		b = append(b, tt.Name...)
		b = append(b, '\n')
		for _, im := range tt.Impls {
			b = append(b, "impl "...)
			b = append(b, tt.Name...)
			b = append(b, ' ')
			b = append(b, sys.Arch.PE(im.PE).Name...)
			b = append(b, " time="...)
			b = appendUnit(b, im.Time, timeUnits)
			b = append(b, " power="...)
			b = appendUnit(b, im.Power, powerUnits)
			if im.Area > 0 {
				b = append(b, " area="...)
				b = strconv.AppendInt(b, int64(im.Area), 10)
			}
			b = append(b, '\n')
		}
	}
	b = append(b, '\n')
	for _, m := range sys.App.Modes {
		b = append(b, "mode "...)
		b = append(b, m.Name...)
		b = append(b, " prob="...)
		b = appendG(b, m.Prob)
		b = append(b, " period="...)
		b = appendUnit(b, m.Period, timeUnits)
		b = append(b, '\n')
		for _, task := range m.Graph.Tasks {
			b = append(b, "task "...)
			b = append(b, m.Name...)
			b = append(b, ' ')
			b = append(b, task.Name...)
			b = append(b, " type="...)
			b = append(b, sys.Lib.Type(task.Type).Name...)
			if task.Deadline > 0 {
				b = append(b, " deadline="...)
				b = appendUnit(b, task.Deadline, timeUnits)
			}
			b = append(b, '\n')
		}
		for _, e := range m.Graph.Edges {
			b = append(b, "edge "...)
			b = append(b, m.Name...)
			b = append(b, ' ')
			b = append(b, m.Graph.Task(e.Src).Name...)
			b = append(b, ' ')
			b = append(b, m.Graph.Task(e.Dst).Name...)
			b = append(b, " bytes="...)
			b = appendG(b, e.Bytes)
			b = append(b, '\n')
		}
	}
	b = append(b, '\n')
	for _, tr := range sys.App.Transitions {
		b = append(b, "transition "...)
		b = append(b, sys.App.Mode(tr.From).Name...)
		b = append(b, ' ')
		b = append(b, sys.App.Mode(tr.To).Name...)
		if tr.MaxTime > 0 {
			b = append(b, " max="...)
			b = appendUnit(b, tr.MaxTime, timeUnits)
		}
		b = append(b, '\n')
	}
	return b
}

// appendG appends v in the shortest 'g' form, the digits of fmt's %g.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
