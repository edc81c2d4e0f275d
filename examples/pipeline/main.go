// Pipeline walks the complete tool flow through the public API, end to
// end: parse a specification from text, synthesise an implementation with
// DVS, persist the mapping, render an SVG Gantt chart of the busiest mode,
// and validate the implementation by simulating an hour of usage.
//
// Artifacts land in a temporary directory whose path is printed.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"momosyn/internal/ga"
	"momosyn/internal/gantt"
	"momosyn/internal/sim"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// spec is a compact three-mode audio gadget: a dominant standby mode, a
// playback mode and a rare firmware-update mode, on a DVS CPU plus a DSP
// ASIC.
const spec = `
system gadget
pe cpu class=gpp vmax=3.3 vt=0.8 static=0.2mW levels=1.2,1.8,2.5,3.3
pe dsp class=asic area=700 static=0.4mW
cl bus bw=4MB/s active=1mW static=0.05mW pes=cpu,dsp

type poll
impl poll cpu time=300us power=6mW
type dec
impl dec cpu time=9ms power=18mW
impl dec dsp time=250us power=14mW area=400
type eq
impl eq cpu time=5ms power=15mW
impl eq dsp time=180us power=11mW area=280
type out
impl out cpu time=800us power=8mW
type verify
impl verify cpu time=12ms power=16mW
impl verify dsp time=400us power=12mW area=350
type flash
impl flash cpu time=8ms power=10mW

mode standby prob=0.85 period=40ms
task standby p0 type=poll
task standby p1 type=poll
edge standby p0 p1 bytes=64

mode play prob=0.14 period=20ms
task play fetch type=poll
task play decode type=dec
task play tune type=eq
task play render type=out
edge play fetch decode bytes=512
edge play decode tune bytes=4096
edge play tune render bytes=4096

mode update prob=0.01 period=50ms
task update check type=verify
task update write type=flash
edge update check write bytes=2048

transition standby play max=20ms
transition play standby max=20ms
transition standby update max=50ms
transition update standby max=50ms
`

func main() {
	dir, err := os.MkdirTemp("", "momosyn-pipeline-")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("artifacts in", dir)

	// 1. Parse the specification.
	sys, err := specio.ReadBytes([]byte(spec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %s: %d modes, %d tasks\n",
		sys.App.Name, len(sys.App.Modes), sys.App.TotalTasks())

	// 2. Synthesise with DVS.
	res, err := synth.Synthesize(sys, synth.Options{
		UseDVS: true,
		GA:     ga.Config{PopSize: 32, MaxGenerations: 120, Stagnation: 40},
		Seed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesised: %.4f mW average, feasible=%v\n",
		res.Best.AvgPower*1e3, res.Best.Feasible())

	// 3. Persist the mapping.
	mapPath := filepath.Join(dir, "gadget.map")
	if err := writeTo(mapPath, func(f *os.File) error {
		return specio.WriteMapping(f, sys, res.Best.Mapping)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("saved mapping to", mapPath)

	// 4. Render the playback mode's schedule.
	play := sys.App.ModeByName("play")
	svgPath := filepath.Join(dir, "play.svg")
	if err := writeTo(svgPath, func(f *os.File) error {
		return gantt.WriteSVG(f, sys, play.ID, res.Best.Schedules[play.ID])
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rendered", svgPath)
	if err := gantt.WriteText(os.Stdout, sys, play.ID, res.Best.Schedules[play.ID], 72); err != nil {
		log.Fatal(err)
	}

	// 5. Simulate an hour of usage and compare against the objective.
	trace, err := sim.GenerateTrace(sys.App, sim.TraceConfig{
		Horizon: 3600, MeanDwell: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := sim.Run(sys, res.Best, trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %.0f s (%d mode switches): %.4f mW measured vs %.4f mW objective\n",
		out.Duration, out.TransitionCount, out.AveragePower()*1e3, res.Best.AvgPower*1e3)
	for i, m := range sys.App.Modes {
		fmt.Printf("  %-8s Ψ=%.2f realised %.3f\n", m.Name, m.Prob, out.Residency[i])
	}
}

func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
