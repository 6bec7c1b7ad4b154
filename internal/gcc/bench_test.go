package gcc

import (
	"testing"
	"time"

	"rpivideo/internal/cc"
)

func BenchmarkKalmanUpdate(b *testing.B) {
	k := newKalman()
	for i := 0; i < b.N; i++ {
		k.update(float64(i%7) - 3)
	}
}

func BenchmarkDetectorUpdate(b *testing.B) {
	d := newDetector()
	for i := 0; i < b.N; i++ {
		d.update(float64(i%30)-15, float64(i))
	}
}

func BenchmarkOnFeedback(b *testing.B) {
	ctrl := New(Config{})
	acks := make([]cc.Ack, 50)
	for i := range acks {
		acks[i] = cc.Ack{
			Size:     1200,
			Received: true,
		}
	}
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += 50 * time.Millisecond
		for j := range acks {
			acks[j].SendTime = now - 60*time.Millisecond + time.Duration(j)*time.Millisecond
			acks[j].ArrivalTime = acks[j].SendTime + 50*time.Millisecond
		}
		ctrl.OnFeedback(now, acks)
	}
}
