package server

import (
	tensorlights "repro"

	"repro/internal/dl"
	"repro/internal/workload"
)

// Queue policies for Config.QueuePolicy.
const (
	// QueueFIFO runs jobs in submission order.
	QueueFIFO = "fifo"
	// QueueSRSF (smallest remaining service first) runs the queued job
	// with the smallest expected work next. Queued jobs have not
	// started, so remaining service equals the total estimate; ties
	// fall back to submission order.
	QueueSRSF = "srsf"
)

// dequeue pops the next job per the queue policy. Each wake token on
// s.queue corresponds to exactly one entry in s.pending, so a token
// reader always finds a job; nil only on the impossible empty case.
// Jobs cancelled while queued are still returned — runJob skips them,
// which keeps the token/pending accounting one-to-one.
func (s *Server) dequeue() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	best := 0
	if s.cfg.QueuePolicy == QueueSRSF {
		for i := 1; i < len(s.pending); i++ {
			if s.pending[i].work < s.pending[best].work {
				best = i
			}
		}
	}
	j := s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)
	return j
}

// expectedWorkBytes estimates the gradient traffic a submission will
// generate — the SRSF ranking key, derived purely from the submitted
// config. The estimate only has to order jobs, not price them exactly,
// so constant per-step factors shared by every submission (chunking,
// barriers, acks) are ignored and unknown model names fall back to a
// zoo default rather than failing: admission already validated what
// matters, and a misranked job is merely scheduled late, not lost.
func expectedWorkBytes(cfg tensorlights.ExperimentConfig) float64 {
	steps := cfg.Steps
	if steps <= 0 {
		steps = 30000 // the façade's full-scale default
	}
	modelBytes := func(name string, fallback dl.Model) float64 {
		m, err := dl.ModelByName(name)
		if err != nil {
			m = fallback
		}
		return float64(m.UpdateBytes())
	}
	// Online trials and collectives run steps/30 iterations per job.
	iters := max(steps/30, 2)
	if sc := cfg.Scheduler; sc != nil {
		// The scheduler trial runs a fixed arrival mix of its own;
		// approximate one arrival as the mix's average model.
		jobs := sc.Jobs
		if jobs <= 0 {
			jobs = 9
		}
		avg := float64(dl.AlexNet.UpdateBytes()+dl.ResNet56.UpdateBytes()+dl.ResNet50.UpdateBytes()) / 3
		return float64(jobs) * float64(iters) * avg
	}
	if ow := cfg.OpenWorld; ow != nil {
		// Price one arrival as the weighted mean of its mix. ow.Trace
		// is never read: it is a reader the run itself consumes.
		jobs := ow.Jobs
		if jobs <= 0 {
			jobs = 9
		}
		mix, err := workload.NamedMix(ow.Mix, iters)
		if err != nil {
			mix, _ = workload.NamedMix("mixed", iters)
		}
		var sum, weights float64
		for _, t := range mix {
			sum += t.Weight * float64(t.Iterations) * float64(t.Model.UpdateBytes())
			weights += t.Weight
		}
		return float64(jobs) * sum / weights
	}
	var total float64
	psJobs := cfg.NumJobs
	if psJobs <= 0 && cfg.Collective == nil {
		psJobs = 21 // the façade's default all-PS testbed
	}
	if psJobs > 0 {
		total += float64(psJobs) * float64(steps) * modelBytes(cfg.Model, dl.ResNet32)
	}
	if cc := cfg.Collective; cc != nil {
		jobs := cc.Jobs
		if jobs <= 0 {
			jobs = 3
		}
		ranks := cc.Ranks
		if ranks <= 0 {
			ranks = 4
		}
		if cc.Iterations > 0 {
			iters = cc.Iterations
		}
		total += float64(jobs) * float64(iters) * float64(ranks) * modelBytes(cc.Model, dl.AlexNet)
	}
	return total
}
