package serve

import (
	"net/http"

	"antace/internal/costmodel"
	"antace/internal/kswork"
	"antace/internal/serve/api"
)

// CostmodelzResponse is the /v1/costmodelz payload: the cost model's
// view of the served program under both the shipped default constants
// and constants recalibrated live from this server's own /v1/profilez
// aggregate, next to the measured ground truth. The ratio columns are
// what the differential tests (and an operator judging whether the
// model still tracks this machine) read.
type CostmodelzResponse struct {
	Program  string          `json:"program"`
	Geometry kswork.Geometry `json:"geometry"`
	Runs     uint64          `json:"runs"`

	Default costmodel.Calibration `json:"default_calibration"`
	// Live is the profile-fitted calibration; absent until the server
	// has profiled at least one run (LiveErr says why).
	Live    *costmodel.Calibration `json:"live_calibration,omitempty"`
	LiveErr string                 `json:"live_error,omitempty"`
	Fits    []costmodel.OpFit      `json:"op_fits,omitempty"`

	// Per-category seconds per run: what the profile measured, and what
	// the model predicts for the served schedule under each calibration.
	MeasuredSec         *costmodel.Breakdown `json:"measured_sec,omitempty"`
	PredictedDefaultSec costmodel.Breakdown  `json:"predicted_default_sec"`
	PredictedLiveSec    *costmodel.Breakdown `json:"predicted_live_sec,omitempty"`
}

// handleCostmodelz prices the served schedule under the default and the
// live-recalibrated cost model and reports both against the measured
// per-category profile. Everything is computed from the current
// /v1/profilez snapshot on each request — the endpoint is a debug view,
// not a hot path.
func (s *Server) handleCostmodelz(w http.ResponseWriter, r *http.Request) {
	snap := s.prof.Snapshot()
	geom := s.ckks.Literal.Geometry()
	resp := CostmodelzResponse{
		Program:  s.name,
		Geometry: geom,
		Runs:     snap.Runs,
		Default:  costmodel.DefaultCalibration(),
	}
	resp.PredictedDefaultSec = (&costmodel.Model{Cal: resp.Default, Geometry: geom}).InferenceCost(s.ckks)

	if meas, err := costmodel.MeasuredBreakdown(snap); err == nil {
		resp.MeasuredSec = &meas
	}
	live, fits, err := costmodel.FromProfile(snap, geom, resp.Default)
	if err != nil {
		resp.LiveErr = err.Error()
		api.WriteJSON(w, http.StatusOK, resp)
		return
	}
	live = costmodel.FitSchedule(live, geom, s.ckks, snap)
	resp.Live = &live
	resp.Fits = fits
	pl := (&costmodel.Model{Cal: live, Geometry: geom}).InferenceCost(s.ckks)
	resp.PredictedLiveSec = &pl
	api.WriteJSON(w, http.StatusOK, resp)
}
