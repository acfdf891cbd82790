package scenario

import (
	"context"
	"math"
	"strconv"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
)

// GammaProfilePoint is one sample of the γ landscape: the delay bound
// and its optimizer internals at a fixed rate slack.
type GammaProfilePoint struct {
	Gamma float64
	D     float64
	Sigma float64
	X     float64
}

// GammaProfileDetail is the Detail payload of the gamma-profile
// scenario: the sampled d(γ) landscape of Section IV's inner
// optimization, plus the grid argmin and the fully optimized bound for
// reference. The profile makes the γ trade-off visible — small slacks
// inflate the union-bound factor 1/(1−e^{−αγ}), large slacks erode the
// leftover service rate — which the optimized figures integrate out.
type GammaProfileDetail struct {
	Points    []GammaProfilePoint
	BestGamma float64 // grid argmin of d(γ)
	BestD     float64 // d at the grid argmin
	OptD      float64 // fully γ-optimized DelayBound, for reference
}

func init() {
	Register(singleScenario{
		info: Info{
			Name: "gamma-profile",
			Desc: "d(γ) landscape of the rate-slack optimization, sampled with the batched γ-grid kernel",
			Params: []Param{
				{Name: "H", Kind: "int", Default: "10", Help: "path length (number of nodes)"},
				{Name: "C", Kind: "float", Default: "100", Help: "link capacity per node [kbit/slot]"},
				{Name: "sched", Kind: "string", Default: "fifo", Help: "scheduler: fifo, bmux, sp, edf"},
				{Name: "edf-d0", Kind: "float", Default: "0", Help: "EDF per-node deadline of the through traffic [slots]"},
				{Name: "edf-dc", Kind: "float", Default: "0", Help: "EDF per-node deadline of the cross traffic [slots]"},
				{Name: "util", Kind: "float", Default: "0.5", Help: "total utilization (through + cross) of each node"},
				{Name: "eps", Kind: "float", Default: "1e-9", Help: "violation probability"},
				{Name: "alpha", Kind: "float", Default: "0.1", Help: "EBB decay of both aggregates"},
				{Name: "points", Kind: "int", Default: "96", Help: "number of γ grid points in (0, γmax)"},
			},
			Backends: Analytic,
		},
		id: func(cfg Config) string {
			return "gamma-profile/" + cfg.Str("sched", "fifo") +
				"/h=" + strconv.Itoa(cfg.Int("H", 10)) +
				"/u=" + strconv.FormatFloat(cfg.Float("util", 0.5), 'g', -1, 64) +
				"/n=" + strconv.Itoa(cfg.Int("points", 96))
		},
		eval: evalGammaProfile,
	})
}

func evalGammaProfile(ctx context.Context, cfg Config, _ Backend) (Result, error) {
	delta, err := flagDelta(cfg)
	if err != nil {
		return Result{}, err
	}
	c := cfg.Float("C", 100)
	util := cfg.Float("util", 0.5)
	// Split the load evenly between the through and cross aggregates, the
	// homogeneous setup of the paper's examples.
	pc := core.PathConfig{
		H:       cfg.Int("H", 10),
		C:       c,
		Through: envelope.EBB{M: 1, Rho: c * util / 2, Alpha: cfg.Float("alpha", 0.1)},
		Cross:   envelope.EBB{M: 1, Rho: c * util / 2, Alpha: cfg.Float("alpha", 0.1)},
		Delta0c: delta,
	}
	eps := cfg.Float("eps", 1e-9)
	n := cfg.Int("points", 96)
	gmax := pc.GammaMax()
	gammas := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		gammas = append(gammas, gmax*float64(i)/float64(n+1))
	}

	// One batched call prices the whole grid: the envelope pricing table
	// is built once and every probe reuses the same scratch buffers.
	var s core.Scratch
	results, err := s.DelayBoundAtGammas(pc, eps, gammas, nil)
	if err != nil {
		return Result{}, err
	}
	det := GammaProfileDetail{Points: make([]GammaProfilePoint, 0, len(results)), BestD: math.Inf(1)}
	for _, r := range results {
		det.Points = append(det.Points, GammaProfilePoint{Gamma: r.Gamma, D: r.D, Sigma: r.Sigma, X: r.X})
		if r.D < det.BestD {
			det.BestD, det.BestGamma = r.D, r.Gamma
		}
	}
	opt, err := core.DelayBoundCtx(ctx, pc, eps)
	if err != nil {
		return Result{}, err
	}
	det.OptD = opt.D
	return Result{
		Analytic: opt.D,
		Extra: map[string]float64{
			"best_gamma": det.BestGamma,
			"grid_d":     det.BestD,
		},
		Detail: det,
	}, nil
}
