package device

// Inside reports how many launches and batches are in the compute engine.
func (d *Device) Inside() int32 { return d.inside.Load() }

// PeakInside reports the most launches and batches the compute engine has
// held at once.
func (d *Device) PeakInside() int32 { return d.peak.Load() }
