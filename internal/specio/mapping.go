package specio

import (
	"bufio"
	"fmt"
	"io"

	"momosyn/internal/model"
)

// Mapping persistence: a synthesised multi-mode task mapping is stored as
// one line per task,
//
//	map <mode> <task> <pe>
//
// referencing entities by name, so a saved mapping stays readable and
// survives cosmetic edits of the spec file. WriteMapping/ReadMapping pair
// with the system the mapping belongs to.

// WriteMapping emits the mapping in the text format.
func WriteMapping(w io.Writer, sys *model.System, m model.Mapping) error {
	if err := m.Validate(sys); err != nil {
		return fmt.Errorf("specio: refusing to write invalid mapping: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# task mapping for system %s\n", sys.App.Name)
	for mi, mode := range sys.App.Modes {
		for ti, task := range mode.Graph.Tasks {
			fmt.Fprintf(bw, "map %s %s %s\n", mode.Name, task.Name, sys.Arch.PE(m[mi][ti]).Name)
		}
	}
	return bw.Flush()
}

// ReadMapping parses a mapping against the system. Every task of every
// mode must be assigned exactly once; assignments must reference existing
// modes, tasks and PEs, and the result must validate (each task's type has
// an implementation on its PE).
func ReadMapping(r io.Reader, sys *model.System) (model.Mapping, error) {
	m := model.NewMapping(sys.App)
	peByName := make(map[string]model.PEID, len(sys.Arch.PEs))
	for _, pe := range sys.Arch.PEs {
		peByName[pe.Name] = pe.ID
	}
	taskByName := make([]map[string]model.TaskID, len(sys.App.Modes))
	modeByName := make(map[string]model.ModeID, len(sys.App.Modes))
	for mi, mode := range sys.App.Modes {
		modeByName[mode.Name] = model.ModeID(mi)
		taskByName[mi] = make(map[string]model.TaskID, len(mode.Graph.Tasks))
		for ti, task := range mode.Graph.Tasks {
			taskByName[mi][task.Name] = model.TaskID(ti)
		}
	}

	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	sc := lineScanner{src: string(data)}
	for sc.next() {
		line, fields := sc.line, sc.fields
		if fields[0] != "map" || len(fields) != 4 {
			return nil, fmt.Errorf("specio: line %d: want 'map MODE TASK PE'", line)
		}
		mi, ok := modeByName[fields[1]]
		if !ok {
			return nil, fmt.Errorf("specio: line %d: unknown mode %q", line, fields[1])
		}
		ti, ok := taskByName[mi][fields[2]]
		if !ok {
			return nil, fmt.Errorf("specio: line %d: unknown task %q in mode %q", line, fields[2], fields[1])
		}
		pe, ok := peByName[fields[3]]
		if !ok {
			return nil, fmt.Errorf("specio: line %d: unknown PE %q", line, fields[3])
		}
		if m[mi][ti] != model.NoPE {
			return nil, fmt.Errorf("specio: line %d: task %q of mode %q assigned twice", line, fields[2], fields[1])
		}
		m[mi][ti] = pe
	}
	if sc.err != nil {
		return nil, sc.err
	}
	for mi, mode := range sys.App.Modes {
		for ti, task := range mode.Graph.Tasks {
			if m[mi][ti] == model.NoPE {
				return nil, fmt.Errorf("specio: task %q of mode %q unassigned", task.Name, mode.Name)
			}
		}
	}
	if err := m.Validate(sys); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	return m, nil
}
