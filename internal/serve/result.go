package serve

import (
	"bytes"
	"math"
	"slices"
	"time"

	"momosyn/internal/jsonw"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/synth"
)

// bytesReader isolates the one bytes dependency of the HTTP layer.
func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }

// ResultView is the JSON body of GET /v1/jobs/{id}/result: the synthesised
// implementation plus the run statistics and (unless the client opted out)
// the independent certification report. Power and fitness fields use
// obs.Float so an infeasible ±Inf objective survives JSON.
type ResultView struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	System string `json:"system"`
	Seed   int64  `json:"seed"`
	DVS    bool   `json:"dvs"`

	// AvgPower is the Eq. (1) average power under the TRUE mode execution
	// probabilities; ObjectivePower is the power under the probabilities the
	// optimiser actually used (differs only for neglect_probabilities runs).
	AvgPower       obs.Float `json:"avg_power"`
	ObjectivePower obs.Float `json:"objective_power"`
	Feasible       bool      `json:"feasible"`
	// Partial marks an interrupted run: the implementation is best-so-far,
	// Reason says why the run stopped.
	Partial bool   `json:"partial,omitempty"`
	Reason  string `json:"reason,omitempty"`

	Generations int    `json:"generations"`
	Evaluations int    `json:"evaluations"`
	Restarts    int    `json:"restarts,omitempty"`
	Elapsed     string `json:"elapsed"`
	// ResumedFrom is the checkpoint generation the run continued from after
	// a restart; 0 for runs that started fresh.
	ResumedFrom int `json:"resumed_from,omitempty"`

	Modes         []ModeView         `json:"modes"`
	Mapping       []MappingView      `json:"mapping"`
	Certification *CertificationView `json:"certification,omitempty"`
}

// ModeView is one mode's power breakdown and schedule.
type ModeView struct {
	Name      string     `json:"name"`
	Prob      float64    `json:"prob"`
	Period    float64    `json:"period"`
	Makespan  float64    `json:"makespan"`
	DynamicW  obs.Float  `json:"dynamic_power"`
	StaticW   obs.Float  `json:"static_power"`
	WeightedW obs.Float  `json:"weighted_power"`
	Schedule  []SlotView `json:"schedule"`
}

// SlotView is one scheduled task execution.
type SlotView struct {
	Task   string  `json:"task"`
	PE     string  `json:"pe"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	// Voltage is the selected supply voltage on DVS processors; 0 when the
	// PE does not scale.
	Voltage float64   `json:"voltage,omitempty"`
	Energy  obs.Float `json:"energy"`
}

// MappingView is one mode's task → PE assignment.
type MappingView struct {
	Mode  string            `json:"mode"`
	Tasks map[string]string `json:"tasks"`
}

// CertificationView summarises the independent verifier's report.
type CertificationView struct {
	Certified     bool            `json:"certified"`
	Checks        int             `json:"checks"`
	ClaimFeasible bool            `json:"claim_feasible"`
	Violations    []ViolationView `json:"violations,omitempty"`
}

// ViolationView is one certification violation.
type ViolationView struct {
	Kind   string    `json:"kind"`
	Mode   string    `json:"mode,omitempty"`
	Detail string    `json:"detail"`
	Got    obs.Float `json:"got"`
	Want   obs.Float `json:"want"`
}

// renderResult serialises a finished job's result document. It tolerates
// the partial shapes interrupted runs produce (nil Best, nil GA). The
// snapshot is explicit because the worker renders the document before the
// job's terminal state becomes publicly visible.
func renderResult(j *Job, snap jobSnapshot, sys *model.System, res *synth.Result) ([]byte, error) {
	view := ResultView{
		ID:          j.ID,
		State:       snap.State,
		System:      sys.App.Name,
		Seed:        j.Request.Seed,
		DVS:         j.Request.DVS,
		Partial:     res.Partial,
		Elapsed:     res.Elapsed.Round(time.Millisecond).String(),
		ResumedFrom: snap.ResumedFrom,
	}
	if res.GA != nil {
		view.Generations = res.GA.Generations
		view.Evaluations = res.GA.Evaluations
		view.Restarts = res.GA.Restarts
		view.Reason = res.GA.Reason
	}
	if best := res.Best; best != nil {
		view.AvgPower = obs.Float(best.AvgPower)
		view.ObjectivePower = obs.Float(res.ObjectivePower)
		view.Feasible = best.Feasible()
		for m, mode := range sys.App.Modes {
			mp := best.ModePowers[m]
			sc := best.Schedules[m]
			mv := ModeView{
				Name:      mode.Name,
				Prob:      mode.Prob,
				Period:    mode.Period,
				Makespan:  sc.Makespan,
				DynamicW:  obs.Float(mp.Dynamic()),
				StaticW:   obs.Float(mp.StaticPower),
				WeightedW: obs.Float(mp.Total() * mode.Prob),
			}
			for ti := range sc.Tasks {
				slot := sc.Tasks[ti]
				pe := sys.Arch.PE(slot.PE)
				sv := SlotView{
					Task:   mode.Graph.Task(model.TaskID(ti)).Name,
					PE:     pe.Name,
					Start:  slot.Start,
					Finish: slot.Finish,
					Energy: obs.Float(slot.Energy),
				}
				if slot.VoltIdx >= 0 && pe.DVS {
					sv.Voltage = pe.Levels[slot.VoltIdx]
				}
				mv.Schedule = append(mv.Schedule, sv)
			}
			view.Modes = append(view.Modes, mv)

			tasks := make(map[string]string, len(mode.Graph.Tasks))
			for ti, task := range mode.Graph.Tasks {
				tasks[task.Name] = sys.Arch.PE(best.Mapping[m][ti]).Name
			}
			view.Mapping = append(view.Mapping, MappingView{Mode: mode.Name, Tasks: tasks})
		}
	}
	if rep := res.Certification; rep != nil {
		cv := &CertificationView{
			Certified:     rep.Certified(),
			Checks:        rep.Checks,
			ClaimFeasible: rep.ClaimFeasible,
		}
		for _, v := range rep.Violations {
			vv := ViolationView{
				Kind:   v.Kind.String(),
				Detail: v.Detail,
				Got:    obs.Float(v.Got),
				Want:   obs.Float(v.Want),
			}
			if mode := sys.App.Mode(v.Mode); mode != nil {
				vv.Mode = mode.Name
			}
			cv.Violations = append(cv.Violations, vv)
		}
		view.Certification = cv
	}
	return appendResult(make([]byte, 0, 1024+512*len(view.Modes)), &view)
}

// appendResult appends v as json.MarshalIndent(v, "", "  ") writes it,
// field by field: a field added to ResultView or the views it nests must
// be added here (TestResultWriterMatchesMarshal and FuzzResultWriter hold
// the two together). A plain float64 that is ±Inf or NaN is an error, as
// it is for encoding/json.
func appendResult(b []byte, v *ResultView) ([]byte, error) {
	w := jsonw.Writer{B: b}
	w.Open('{')
	w.Field("id")
	w.String(v.ID)
	w.Field("state")
	w.String(string(v.State))
	w.Field("system")
	w.String(v.System)
	w.Field("seed")
	w.Int(v.Seed)
	w.Field("dvs")
	w.Bool(v.DVS)
	w.Field("avg_power")
	obsFloat(&w, v.AvgPower)
	w.Field("objective_power")
	obsFloat(&w, v.ObjectivePower)
	w.Field("feasible")
	w.Bool(v.Feasible)
	if v.Partial {
		w.Field("partial")
		w.Bool(true)
	}
	if v.Reason != "" {
		w.Field("reason")
		w.String(v.Reason)
	}
	w.Field("generations")
	w.Int(int64(v.Generations))
	w.Field("evaluations")
	w.Int(int64(v.Evaluations))
	if v.Restarts != 0 {
		w.Field("restarts")
		w.Int(int64(v.Restarts))
	}
	w.Field("elapsed")
	w.String(v.Elapsed)
	if v.ResumedFrom != 0 {
		w.Field("resumed_from")
		w.Int(int64(v.ResumedFrom))
	}
	w.Field("modes")
	if v.Modes == nil {
		w.B = append(w.B, "null"...)
	} else {
		w.Open('[')
		for i := range v.Modes {
			w.Elem()
			appendMode(&w, &v.Modes[i])
		}
		w.Close(']')
	}
	w.Field("mapping")
	if v.Mapping == nil {
		w.B = append(w.B, "null"...)
	} else {
		w.Open('[')
		var names []string
		for i := range v.Mapping {
			w.Elem()
			names = appendMapping(&w, &v.Mapping[i], names)
		}
		w.Close(']')
	}
	if cv := v.Certification; cv != nil {
		w.Field("certification")
		appendCertification(&w, cv)
	}
	w.Close('}')
	return w.B, w.Err
}

func appendMode(w *jsonw.Writer, m *ModeView) {
	w.Open('{')
	w.Field("name")
	w.String(m.Name)
	w.Field("prob")
	w.Float(m.Prob)
	w.Field("period")
	w.Float(m.Period)
	w.Field("makespan")
	w.Float(m.Makespan)
	w.Field("dynamic_power")
	obsFloat(w, m.DynamicW)
	w.Field("static_power")
	obsFloat(w, m.StaticW)
	w.Field("weighted_power")
	obsFloat(w, m.WeightedW)
	w.Field("schedule")
	if m.Schedule == nil {
		w.B = append(w.B, "null"...)
	} else {
		w.Open('[')
		for i := range m.Schedule {
			sv := &m.Schedule[i]
			w.Elem()
			w.Open('{')
			w.Field("task")
			w.String(sv.Task)
			w.Field("pe")
			w.String(sv.PE)
			w.Field("start")
			w.Float(sv.Start)
			w.Field("finish")
			w.Float(sv.Finish)
			if sv.Voltage != 0 {
				w.Field("voltage")
				w.Float(sv.Voltage)
			}
			w.Field("energy")
			obsFloat(w, sv.Energy)
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

// appendMapping writes one mode's mapping with its task names sorted, as
// encoding/json sorts map keys; names is scratch for the sort, returned
// for reuse.
func appendMapping(w *jsonw.Writer, mv *MappingView, names []string) []string {
	w.Open('{')
	w.Field("mode")
	w.String(mv.Mode)
	w.Field("tasks")
	if mv.Tasks == nil {
		w.B = append(w.B, "null"...)
	} else {
		names = names[:0]
		for name := range mv.Tasks {
			names = append(names, name)
		}
		slices.Sort(names)
		w.Open('{')
		for _, name := range names {
			w.Elem()
			w.String(name)
			w.B = append(w.B, ':', ' ')
			w.String(mv.Tasks[name])
		}
		w.Close('}')
	}
	w.Close('}')
	return names
}

func appendCertification(w *jsonw.Writer, cv *CertificationView) {
	w.Open('{')
	w.Field("certified")
	w.Bool(cv.Certified)
	w.Field("checks")
	w.Int(int64(cv.Checks))
	w.Field("claim_feasible")
	w.Bool(cv.ClaimFeasible)
	if len(cv.Violations) > 0 {
		w.Field("violations")
		w.Open('[')
		for i := range cv.Violations {
			vv := &cv.Violations[i]
			w.Elem()
			w.Open('{')
			w.Field("kind")
			w.String(vv.Kind)
			if vv.Mode != "" {
				w.Field("mode")
				w.String(vv.Mode)
			}
			w.Field("detail")
			w.String(vv.Detail)
			w.Field("got")
			obsFloat(w, vv.Got)
			w.Field("want")
			obsFloat(w, vv.Want)
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

// obsFloat writes f as obs.Float's MarshalJSON does: ±Inf and NaN as the
// strings "+Inf", "-Inf" and "NaN", anything else as a JSON number.
func obsFloat(w *jsonw.Writer, f obs.Float) {
	switch v := float64(f); {
	case math.IsInf(v, 1):
		w.B = append(w.B, `"+Inf"`...)
	case math.IsInf(v, -1):
		w.B = append(w.B, `"-Inf"`...)
	case math.IsNaN(v):
		w.B = append(w.B, `"NaN"`...)
	default:
		w.Float(v)
	}
}
