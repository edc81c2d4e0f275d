package main

import "math"

// e2eUnits lists every end-to-end metric an untraced run reports, with
// its unit. Every workload reports all of them; README.md says what each
// means on each workload.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"synth_s_p50":  "s",
	"evals_per_s":  "1/s",
	"power_mw_geo": "mW",
	"jobs_per_s":   "1/s",
	"peak_rss_mb":  "MiB",
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A layer the workload does not exercise reports 0 (for example
// dvs.* on engine-nodvs, serve.* on the engine workloads). README.md maps
// each one to the end-to-end metric and workload it should move.
var layerUnits = map[string]string{
	"specio.read_us":            "us",
	"specio.canonical_us":       "us",
	"sched.mobility_us":         "us",
	"sched.listsched_us":        "us",
	"synth.alloc_us":            "us",
	"dvs.scale_us":              "us",
	"dvs.scale_calls":           "count",
	"dvs.share":                 "frac",
	"synth.evaluate_us":         "us",
	"synth.allocs_per_eval":     "count",
	"synth.cache_hit_frac":      "frac",
	"synth.phase.mobility_s":    "s",
	"synth.phase.core_alloc_s":  "s",
	"synth.phase.list_sched_s":  "s",
	"synth.phase.comm_map_s":    "s",
	"synth.phase.dvs_s":         "s",
	"synth.phase.refine_s":      "s",
	"ga.gen_us":                 "us",
	"ga.residual_frac":          "frac",
	"ga.evals_per_run":          "count",
	"ga.generations_per_run":    "count",
	"verify.certify_ms":         "ms",
	"runctl.save_ms":            "ms",
	"runctl.saves_per_job":      "count",
	"cas.get_us":                "us",
	"cas.put_ms":                "ms",
	"cas.hit_frac":              "frac",
	"serve.job_ms_p50":          "ms",
	"serve.job_ms_p90":          "ms",
	"serve.hit_ms_p50":          "ms",
	"serve.hit_ms_p90":          "ms",
	"serve.requests_per_wall_s": "1/s",
	"serve.sys_ms_per_request":  "ms",
	"serve.submit_ms_p50":       "ms",
	"serve.status_ms_p50":       "ms",
	"serve.queue_ms_p50":        "ms",
	"serve.attempt_ms_p50":      "ms",
	"serve.persist_ms_p50":      "ms",
	"serve.shed_count":          "count",
	"serve.retries":             "count",
	"obs.trace_overhead_frac":   "frac",
	"fail_frac":                 "frac",
}

// withUnits turns measured values into the result's metric map. Every
// listed metric appears; a per-layer metric the workload does not
// exercise reads 0, and a missing end-to-end metric is NaN, which the
// result writer rejects.
func withUnits(vals map[string]float64, units map[string]string, missing float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name := range vals {
		if _, ok := units[name]; !ok {
			panic("benchmark: unlisted metric " + name)
		}
	}
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			v = missing
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out
}

func layerMetrics(vals map[string]float64) map[string]metric { return withUnits(vals, layerUnits, 0) }

func e2eMetrics(vals map[string]float64) map[string]metric {
	return withUnits(vals, e2eUnits, math.NaN())
}
