package bonsai

import "bonsai/internal/snapshot"

// SaveSnapshot writes the particle set and simulation time/step to a binary
// restart file.
func SaveSnapshot(path string, time float64, step int, parts []Particle) error {
	return snapshot.Save(path, snapshot.Header{Time: time, Step: int64(step)}, parts)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(path string) (time float64, step int, parts []Particle, err error) {
	h, parts, err := snapshot.Load(path)
	if err != nil {
		return 0, 0, nil, err
	}
	return h.Time, int(h.Step), parts, nil
}
