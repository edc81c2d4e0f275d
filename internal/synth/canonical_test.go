package synth

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"momosyn/internal/ga"
)

// TestCanonicalOptions pins the keying contract: trajectory-shaping fields
// move the canonical bytes, runtime plumbing does not.
func TestCanonicalOptions(t *testing.T) {
	base := Options{Seed: 42, UseDVS: true, GA: ga.Config{PopSize: 32}}
	want := string(CanonicalOptions(base))
	if want == "" {
		t.Fatal("canonical options are empty")
	}
	// Refinement is gone from the engine, so it is gone from the key.
	if strings.Contains(want, "refine") {
		t.Fatalf("canonical options still key on refinement:\n%s", want)
	}

	runtime := base
	runtime.Context = context.Background()
	runtime.CheckpointPath = "/tmp/cp.json"
	runtime.CheckpointEvery = 3
	runtime.Resume = true
	runtime.FaultBudget = 7
	if got := string(CanonicalOptions(runtime)); got != want {
		t.Fatalf("runtime plumbing changed the canonical options:\n--- want\n%s\n--- got\n%s", want, got)
	}

	for name, mutate := range map[string]func(*Options){
		"seed":      func(o *Options) { o.Seed = 43 },
		"dvs":       func(o *Options) { o.UseDVS = false },
		"neglect":   func(o *Options) { o.NeglectProbabilities = true },
		"stall":     func(o *Options) { o.StallWindow = 9 },
		"certify":   func(o *Options) { o.Certify = true },
		"ga_pop":    func(o *Options) { o.GA.PopSize = 64 },
		"ga_maxgen": func(o *Options) { o.GA.MaxGenerations = 10 },
	} {
		opts := base
		mutate(&opts)
		if got := string(CanonicalOptions(opts)); got == want {
			t.Errorf("%s: trajectory-shaping change left canonical options unchanged", name)
		}
	}
}

// Every exported field of Options (and of its ga.Config) falls in exactly
// one of these classes. A new field must be added to one of them, which
// forces the decision of whether it enters the result key and the
// checkpoint fingerprint.
var (
	// plumbingFields change neither the result key nor the checkpoint
	// identity: they never move the search trajectory or the result.
	plumbingFields = []string{
		"Context", "CheckpointPath", "CheckpointEvery", "CheckpointSave",
		"Resume", "FaultBudget", "Obs",
	}
	// keyOnlyFields change the result (and so its key) but not the search
	// trajectory, so a checkpoint resumes under either value.
	keyOnlyFields = []string{"Certify"}
	// trajectoryFields shape the search: they move both.
	trajectoryFields = []string{
		"UseDVS", "NeglectProbabilities", "DVSSoftwareOnly", "NoReplicaCores",
		"NoImprovementMutations", "Seed", "StallWindow",
		"GA.PopSize", "GA.MaxGenerations", "GA.Stagnation",
	}
)

// TestOptionsFieldsClassified sets each exported field of Options and of
// its ga.Config to a non-zero value and checks that the result key and
// the checkpoint identity move exactly as the field's class says.
func TestOptionsFieldsClassified(t *testing.T) {
	class := map[string]string{}
	for name, fields := range map[string][]string{
		"plumbing": plumbingFields, "key-only": keyOnlyFields, "trajectory": trajectoryFields,
	} {
		for _, f := range fields {
			if prev, ok := class[f]; ok {
				t.Errorf("field %s is in both the %s and the %s class", f, prev, name)
			}
			class[f] = name
		}
	}
	// The checkpoint identity is what checkResumable compares besides the
	// system and genome length: the seed, recorded on its own, and the
	// options fingerprint.
	identity := func(o Options) string { return fmt.Sprintf("seed=%d %s", o.Seed, o.fingerprint()) }
	base := Options{}
	baseKey, baseID := string(CanonicalOptions(base)), identity(base)

	seen := map[string]bool{}
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				visit(name+".", v.Field(i))
				continue
			}
			seen[name] = true
			want, ok := class[name]
			if !ok {
				t.Errorf("field %s is in no class: decide whether it moves CanonicalOptions and the fingerprint", name)
				continue
			}
			// v lies inside base, so setting the field sets it in base.
			v.Field(i).Set(nonZero(t, name, f.Type))
			keyMoved := string(CanonicalOptions(base)) != baseKey
			idMoved := identity(base) != baseID
			v.Field(i).Set(reflect.Zero(f.Type))
			got := "plumbing"
			switch {
			case keyMoved && idMoved:
				got = "trajectory"
			case keyMoved:
				got = "key-only"
			case idMoved:
				got = "fingerprint-only"
			}
			if got != want {
				t.Errorf("field %s behaves as %s (key moved %v, checkpoint identity moved %v), classified %s",
					name, got, keyMoved, idMoved, want)
			}
		}
	}
	visit("", reflect.ValueOf(&base).Elem())
	for f := range class {
		if !seen[f] {
			t.Errorf("classified field %s does not exist", f)
		}
	}
}

// nonZero returns a non-zero value of the type.
func nonZero(t *testing.T, name string, typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Interface:
		ctx := reflect.ValueOf(context.Background())
		if !ctx.Type().AssignableTo(typ) {
			t.Fatalf("field %s: no non-zero value for interface %s", name, typ)
		}
		v.Set(ctx)
	default:
		t.Fatalf("field %s: no non-zero value for kind %s", name, typ.Kind())
	}
	return v
}
