package simnet

import "repro/internal/flownet"

// FlowBandBytesFullScan is FlowBandBytes summed over every active flow
// in the engine, keeping those from host: the reference for the
// egress-link visit FlowBandBytes makes.
func (f *Fabric) FlowBandBytesFullScan(host int) map[int]uint64 {
	fm := f.flow
	fm.eng.Sync()
	m := make(map[int]uint64)
	for band, b := range fm.bandDone[host] {
		m[band] = uint64(b)
	}
	fm.eng.ForEach(func(_ flownet.FlowID, tag any) {
		fl := tag.(*Flow)
		if fl.Spec.Src != host {
			return
		}
		if rem, ok := fm.eng.Remaining(fl.flowHandle); ok {
			m[fl.flowBand] += uint64(float64(fl.Spec.Bytes) - rem)
		}
	})
	return m
}
