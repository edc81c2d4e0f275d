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
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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

// ReadBytes parses a specification held in memory as bytes (an embedded
// spec, a file's contents, ...), discarding lint warnings. It copies data
// once, into the string ReadWarnString parses.
func ReadBytes(data []byte) (*model.System, error) {
	sys, _, err := ReadWarnString(string(data))
	return sys, err
}

// ReadWarn reads all of r and parses it as ReadWarnString does.
func ReadWarn(r io.Reader) (*model.System, []Warning, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("specio: %w", err)
	}
	return ReadWarnString(string(data))
}

// ReadWarnString parses a specification held in memory and additionally
// returns semantic lint warnings. Every parse error carries the 1-based
// input line number; only whole-spec semantic errors (graph cycles, ...)
// are reported without one. Mode execution probabilities that do not sum
// to ~1 are normalised with a warning (the OMSM semantics need a
// distribution, and a misscaled Ψ would silently skew the Eq. (1)
// objective); unreachable modes and transitions with non-positive tTmax
// are rejected as errors.
//
// The input is not copied: every name in the system but its own is a
// substring of spec, and lines and fields are found by index into it.
func ReadWarnString(spec string) (*model.System, []Warning, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	var fields [16]string // room for the fields of any line in a well-formed spec
	sc := lineScanner{src: spec, fields: fields[:0]}
	for sc.next() {
		p.line = sc.line
		if err := p.directive(sc.fields); err != nil {
			return nil, nil, fmt.Errorf("specio: line %d: %w", sc.line, err)
		}
	}
	if sc.err != nil {
		return nil, nil, sc.err
	}
	return p.finish()
}

// maxLine is the longest line, in bytes before its newline, the readers
// accept; a longer one fails with bufio.ErrTooLong, as it did when they
// read through a bufio.Scanner with a 4 MiB buffer.
const maxLine = 1<<22 - 1

// lineScanner walks the lines of src, splitting each into fields that are
// substrings of src. '#' starts a comment that runs to the end of the line.
type lineScanner struct {
	src    string
	pos    int
	line   int      // 1-based number of the current line
	fields []string // the current line's fields
	err    error
}

// next advances to the next line with at least one field. It returns
// false at the end of the input, and at a line longer than maxLine, which
// err then reports.
func (s *lineScanner) next() bool {
	for s.pos < len(s.src) {
		s.line++
		text := s.src[s.pos:]
		if n := strings.IndexByte(text, '\n'); n >= 0 {
			text = text[:n]
			s.pos += n + 1
		} else {
			s.pos = len(s.src)
		}
		if len(text) > maxLine {
			s.err = fmt.Errorf("specio: line %d: %w", s.line, bufio.ErrTooLong)
			return false
		}
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		if s.fields = appendFields(s.fields[:0], text); len(s.fields) > 0 {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of text to dst, split around runs of
// white space exactly as strings.Fields splits them: an ASCII byte by
// asciiSpace, any other rune (U+00A0 and U+0085 among them) by
// unicode.IsSpace, and an invalid UTF-8 byte is not space.
func appendFields(dst []string, text string) []string {
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else if space, n := runeSpace(text[i:]); space {
			i += n
			continue
		}
		start := i
		for i+8 <= len(text) && plainWord(text[i:i+8]) {
			i += 8
		}
		for i < len(text) {
			if c := text[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
			} else if space, n := runeSpace(text[i:]); !space {
				i += n
			} else {
				break
			}
		}
		dst = append(dst, text[start:i])
	}
	return dst
}

// plainWord reports whether all eight bytes of w are in 0x21–0x7f, none
// of them space (ASCII space is below 0x21) or part of a non-ASCII rune:
// subtracting 0x21 from every byte at once sets a byte's top bit if it,
// or a byte below it, is under 0x21.
func plainWord(w string) bool {
	x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
		uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
	return (x-0x2121212121212121|x)&0x8080808080808080 == 0
}

// runeSpace reports whether the rune text starts with is space, and its
// width.
func runeSpace(text string) (bool, int) {
	r, n := utf8.DecodeRuneInString(text)
	return unicode.IsSpace(r), n
}

// parser accumulates declarations, every reference resolved to an ID and
// every name indexed while the line number is known, until finish
// assembles the system.
type parser struct {
	name  string
	line  int // the line being parsed; modes record it for the lints
	pes   []model.PE
	cls   []model.CL
	types []typeDecl
	impls []implDecl
	modes []modeDecl
	tasks []taskDecl
	edges []edgeDecl
	trans []model.Transition

	peID   map[string]model.PEID
	clSet  map[string]bool
	typeID map[string]model.TaskTypeID
	modeID map[string]model.ModeID
	taskID map[taskKey]model.TaskID // task names are unique within a mode
}

type (
	typeDecl struct {
		tt    model.TaskType
		nimpl int
	}
	implDecl struct {
		typ  model.TaskTypeID
		impl model.Impl
	}
	modeDecl struct {
		mode           model.Mode
		line           int
		ntasks, nedges int
	}
	taskDecl struct {
		mode model.ModeID
		task model.Task
	}
	edgeDecl struct {
		mode model.ModeID
		edge model.Edge
	}
	taskKey struct {
		mode model.ModeID
		name string
	}
)

// parserPool recycles parsers. Their lists and indexes are working state
// (finish copies what the system keeps), so a parse reuses their memory.
var parserPool = sync.Pool{New: func() any {
	return &parser{peID: map[string]model.PEID{}, clSet: map[string]bool{},
		typeID: map[string]model.TaskTypeID{}, modeID: map[string]model.ModeID{}, taskID: map[taskKey]model.TaskID{}}
}}

// release empties p, dropping its references into the input, and returns
// it to parserPool.
func (p *parser) release() {
	p.name = ""
	p.pes, p.cls, p.trans = reuse(p.pes), reuse(p.cls), reuse(p.trans)
	p.types, p.impls, p.modes = reuse(p.types), reuse(p.impls), reuse(p.modes)
	p.tasks, p.edges = reuse(p.tasks), reuse(p.edges)
	clear(p.peID)
	clear(p.clSet)
	clear(p.typeID)
	clear(p.modeID)
	clear(p.taskID)
	parserPool.Put(p)
}

// reuse zeroes the elements of s and returns it emptied.
func reuse[T any](s []T) []T {
	clear(s)
	return s[:0]
}

func (p *parser) directive(fields []string) error {
	switch fields[0] {
	case "system":
		if len(fields) != 2 {
			return fmt.Errorf("system needs exactly one name")
		}
		// A copy: callers keep the system's name after the system (a job
		// record, say), and a substring would keep the whole input alive.
		p.name = strings.Clone(fields[1])
		return nil
	case "pe":
		return p.parsePE(fields)
	case "cl":
		return p.parseCL(fields)
	case "type":
		if len(fields) != 2 {
			return fmt.Errorf("type needs exactly one name")
		}
		if _, dup := p.typeID[fields[1]]; dup {
			return fmt.Errorf("duplicate type %q", fields[1])
		}
		id := model.TaskTypeID(len(p.types))
		p.types = append(p.types, typeDecl{tt: model.TaskType{ID: id, Name: fields[1]}})
		p.typeID[fields[1]] = id
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

// checkAttrs rejects the first key=value field, in line order, that is
// malformed or repeats an earlier key. The directives then read the
// fields in line order too, so of several bad attributes the first on
// the line is the one reported.
func checkAttrs(fields []string) error {
	var seen map[string]bool // for lines too long to compare pairwise
	if len(fields) > 8 {
		seen = make(map[string]bool, len(fields))
	}
	for i, f := range fields {
		key, _, ok := splitAttr(f)
		if !ok {
			return fmt.Errorf("malformed attribute %q (want key=value)", f)
		}
		var dup bool
		if seen != nil {
			dup, seen[key] = seen[key], true
		} else {
			for _, g := range fields[:i] {
				// g is well formed: its key is key if g starts with key and '='.
				dup = dup || len(g) > len(key) && g[len(key)] == '=' && g[:len(key)] == key
			}
		}
		if dup {
			return fmt.Errorf("duplicate attribute %q", key)
		}
	}
	return nil
}

// splitAttr splits a key=value field at its first '='; ok is false when
// the key is empty or there is no '='.
func splitAttr(f string) (key, val string, ok bool) {
	i := strings.IndexByte(f, '=')
	if i <= 0 {
		return "", "", false
	}
	return f[:i], f[i+1:], true
}

// checkNamed checks a "KIND NAME key=value..." line: its attributes,
// then that no KIND is named NAME yet.
func checkNamed[V any](kind string, fields []string, declared map[string]V) error {
	if len(fields) < 3 {
		return fmt.Errorf("%s needs a name and attributes", kind)
	}
	if err := checkAttrs(fields[2:]); err != nil {
		return err
	}
	if _, dup := declared[fields[1]]; dup {
		return fmt.Errorf("duplicate %s %q", kind, fields[1])
	}
	return nil
}

func (p *parser) parsePE(fields []string) error {
	if err := checkNamed("pe", fields, p.peID); err != nil {
		return err
	}
	pe := model.PE{ID: model.PEID(len(p.pes)), Name: fields[1], Vmax: 3.3, Vt: 0.8}
	for _, f := range fields[2:] {
		k, v, _ := splitAttr(f)
		var err error
		switch k {
		case "class":
			var ok bool
			if pe.Class, ok = peClasses[strings.ToLower(v)]; !ok {
				err = fmt.Errorf("unknown PE class %q", v)
			}
		case "vmax":
			pe.Vmax, err = parseFloat(k, v)
		case "vt":
			pe.Vt, err = parseFloat(k, v)
		case "area":
			pe.Area, err = parseInt(k, v)
		case "static":
			pe.StaticPower, err = ParsePower(v)
		case "reconfig":
			pe.ReconfigTime, err = ParseTime(v)
		case "levels":
			pe.DVS = true
			levels := strings.Split(v, ",")
			pe.Levels = make([]float64, 0, len(levels))
			for _, s := range levels {
				var lv float64
				if lv, err = parseFloat(k, s); err != nil {
					break
				}
				pe.Levels = append(pe.Levels, lv)
			}
			sort.Float64s(pe.Levels)
		default:
			err = fmt.Errorf("unknown pe attribute %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.pes = append(p.pes, pe)
	p.peID[pe.Name] = pe.ID
	return nil
}

var peClasses = map[string]model.PEClass{"gpp": model.GPP, "asip": model.ASIP, "asic": model.ASIC, "fpga": model.FPGA}

// parseFloat and parseInt parse the value v of attribute k.
func parseFloat(k, v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", k, err)
	}
	return x, nil
}

func parseInt(k, v string) (int, error) {
	x, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", k, err)
	}
	return x, nil
}

func (p *parser) parseCL(fields []string) error {
	if err := checkNamed("cl", fields, p.clSet); err != nil {
		return err
	}
	cl := model.CL{ID: model.CLID(len(p.cls)), Name: fields[1]}
	for _, f := range fields[2:] {
		k, v, _ := splitAttr(f)
		var err error
		switch k {
		case "bw":
			cl.BytesPerSec, err = ParseBandwidth(v)
		case "active":
			cl.PowerActive, err = ParsePower(v)
		case "static":
			cl.StaticPower, err = ParsePower(v)
		case "pes":
			names := strings.Split(v, ",")
			cl.PEs = make([]model.PEID, 0, len(names))
			for _, n := range names {
				id, ok := p.peID[n]
				if !ok {
					return fmt.Errorf("cl %q attaches undeclared pe %q", cl.Name, n)
				}
				cl.PEs = append(cl.PEs, id)
			}
		default:
			err = fmt.Errorf("unknown cl attribute %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.cls = append(p.cls, cl)
	p.clSet[cl.Name] = true
	return nil
}

func (p *parser) parseImpl(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("impl needs: impl TYPE PE key=value...")
	}
	typ, ok := p.typeID[fields[1]]
	if !ok {
		return fmt.Errorf("impl for undeclared type %q", fields[1])
	}
	pe, ok := p.peID[fields[2]]
	if !ok {
		return fmt.Errorf("impl of type %q on undeclared pe %q", fields[1], fields[2])
	}
	if err := checkAttrs(fields[3:]); err != nil {
		return err
	}
	im := model.Impl{PE: pe}
	for _, f := range fields[3:] {
		k, v, _ := splitAttr(f)
		var err error
		switch k {
		case "time":
			im.Time, err = ParseTime(v)
		case "power":
			im.Power, err = ParsePower(v)
		case "area":
			im.Area, err = parseInt(k, v)
		default:
			err = fmt.Errorf("unknown impl attribute %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.impls = append(p.impls, implDecl{typ: typ, impl: im})
	p.types[typ].nimpl++
	return nil
}

func (p *parser) parseMode(fields []string) error {
	if err := checkNamed("mode", fields, p.modeID); err != nil {
		return err
	}
	d := modeDecl{mode: model.Mode{ID: model.ModeID(len(p.modes)), Name: fields[1]}, line: p.line}
	for _, f := range fields[2:] {
		k, v, _ := splitAttr(f)
		var err error
		switch k {
		case "prob":
			d.mode.Prob, err = parseFloat(k, v)
		case "period":
			d.mode.Period, err = ParseTime(v)
		default:
			err = fmt.Errorf("unknown mode attribute %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.modes = append(p.modes, d)
	p.modeID[d.mode.Name] = d.mode.ID
	return nil
}

func (p *parser) parseTask(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("task needs: task MODE NAME key=value...")
	}
	mode, ok := p.modeID[fields[1]]
	if !ok {
		return fmt.Errorf("task in undeclared mode %q", fields[1])
	}
	if err := checkAttrs(fields[3:]); err != nil {
		return err
	}
	task, typ := model.Task{Name: fields[2]}, ""
	for _, f := range fields[3:] {
		k, v, _ := splitAttr(f)
		var err error
		switch k {
		case "type":
			typ = v
		case "deadline":
			task.Deadline, err = ParseTime(v)
		default:
			err = fmt.Errorf("unknown task attribute %q", k)
		}
		if err != nil {
			return err
		}
	}
	if typ == "" {
		return fmt.Errorf("task %q needs a type", task.Name)
	}
	if task.Type, ok = p.typeID[typ]; !ok {
		return fmt.Errorf("task %q uses undeclared type %q", task.Name, typ)
	}
	m := &p.modes[mode]
	key := taskKey{mode, task.Name}
	if _, dup := p.taskID[key]; dup {
		return fmt.Errorf("duplicate task %q in mode %q", task.Name, m.mode.Name)
	}
	task.ID = model.TaskID(m.ntasks)
	m.ntasks++
	p.tasks = append(p.tasks, taskDecl{mode: mode, task: task})
	p.taskID[key] = task.ID
	return nil
}

func (p *parser) parseEdge(fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("edge needs: edge MODE SRC DST [bytes=N]")
	}
	mode, ok := p.modeID[fields[1]]
	if !ok {
		return fmt.Errorf("edge in undeclared mode %q", fields[1])
	}
	m := &p.modes[mode]
	e := model.Edge{ID: model.EdgeID(m.nedges)}
	if e.Src, ok = p.taskID[taskKey{mode, fields[2]}]; !ok {
		return fmt.Errorf("edge references undeclared task %q in mode %q", fields[2], m.mode.Name)
	}
	if e.Dst, ok = p.taskID[taskKey{mode, fields[3]}]; !ok {
		return fmt.Errorf("edge references undeclared task %q in mode %q", fields[3], m.mode.Name)
	}
	if err := checkAttrs(fields[4:]); err != nil {
		return err
	}
	for _, f := range fields[4:] {
		k, v, _ := splitAttr(f)
		if k != "bytes" {
			return fmt.Errorf("unknown edge attribute %q", k)
		}
		var err error
		if e.Bytes, err = parseFloat(k, v); err != nil {
			return err
		}
	}
	m.nedges++
	p.edges = append(p.edges, edgeDecl{mode: mode, edge: e})
	return nil
}

func (p *parser) parseTransition(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("transition needs: transition FROM TO [max=T]")
	}
	tr := model.Transition{}
	var ok bool
	if tr.From, ok = p.modeID[fields[1]]; !ok {
		return fmt.Errorf("transition from undeclared mode %q", fields[1])
	}
	if tr.To, ok = p.modeID[fields[2]]; !ok {
		return fmt.Errorf("transition to undeclared mode %q", fields[2])
	}
	if err := checkAttrs(fields[3:]); err != nil {
		return err
	}
	for _, f := range fields[3:] {
		k, v, _ := splitAttr(f)
		if k != "max" {
			return fmt.Errorf("unknown transition attribute %q", k)
		}
		var err error
		if tr.MaxTime, err = ParseTime(v); err != nil {
			return err
		}
		if tr.MaxTime <= 0 {
			return fmt.Errorf("transition %s->%s: max=%s is not positive; omit max for an unconstrained transition",
				fields[1], fields[2], v)
		}
	}
	p.trans = append(p.trans, tr)
	return nil
}

// finish assembles the system model.Builder would build from the
// declarations (the parser has checked every name the builder would),
// validates it and applies the whole-spec semantic lints.
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
		for _, d := range p.modes {
			sum += d.mode.Prob
		}
		if sum > 0 && math.Abs(sum-1) > 1e-6 {
			warns = append(warns, Warning{Line: p.modes[0].line, Msg: fmt.Sprintf(
				"mode execution probabilities sum to %g, not 1; normalising to a distribution", sum)})
			for i := range p.modes {
				p.modes[i].mode.Prob /= sum
			}
		}
	}

	sys := &model.System{App: &model.OMSM{Name: p.name}, Arch: &model.Arch{}, Lib: &model.Library{}}
	sys.Arch.PEs = place(p.pes, func(pe *model.PE) *model.PE { return pe })
	sys.Arch.CLs = place(p.cls, func(cl *model.CL) *model.CL { return cl })
	sys.Lib.Types = place(p.types, func(d *typeDecl) *model.TaskType { return &d.tt })
	impls := make([]model.Impl, len(p.impls))
	for i, tt := range sys.Lib.Types {
		if n := p.types[i].nimpl; n > 0 {
			tt.Impls, impls = impls[:0:n], impls[n:]
		}
	}
	for _, d := range p.impls {
		sys.Lib.Types[d.typ].Impls = append(sys.Lib.Types[d.typ].Impls, d.impl)
	}

	sys.App.Modes = place(p.modes, func(d *modeDecl) *model.Mode { return &d.mode })
	// Group tasks and edges by mode, each mode's in declaration order.
	slices.SortStableFunc(p.tasks, func(a, b taskDecl) int { return cmp.Compare(a.mode, b.mode) })
	slices.SortStableFunc(p.edges, func(a, b edgeDecl) int { return cmp.Compare(a.mode, b.mode) })
	tasks, edges := p.tasks, p.edges
	for i, m := range sys.App.Modes {
		n, k := p.modes[i].ntasks, p.modes[i].nedges
		m.Graph = model.NewTaskGraph(
			place(tasks[:n], func(d *taskDecl) *model.Task { return &d.task }),
			place(edges[:k], func(d *edgeDecl) *model.Edge { return &d.edge }))
		tasks, edges = tasks[n:], edges[k:]
	}
	if len(p.trans) > 0 {
		sys.App.Transitions = slices.Clone(p.trans)
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}

	// Lint: every declared mode must be reachable from the initial (first
	// declared) mode when the spec declares a state machine at all.
	if len(p.modes) > 1 && len(p.trans) > 0 {
		reach := sys.App.ReachableFrom(0)
		for i, ok := range reach {
			if !ok {
				return nil, nil, fmt.Errorf(
					"specio: line %d: mode %q is unreachable from initial mode %q via the declared transitions",
					p.modes[i].line, p.modes[i].mode.Name, p.modes[0].mode.Name)
			}
		}
	}
	return sys, warns, nil
}

// place copies the object get picks from each declaration into one array
// and returns a pointer to each, or nil for none (as the builder leaves
// an empty list).
func place[D, T any](decls []D, get func(*D) *T) []*T {
	if len(decls) == 0 {
		return nil
	}
	objs := make([]T, len(decls))
	out := make([]*T, len(decls))
	for i := range decls {
		objs[i] = *get(&decls[i])
		out[i] = &objs[i]
	}
	return out
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
