//go:build !linux

package live

import (
	"errors"
	"time"
)

// openWakeTimer reports that this platform has no timerfd: every real
// wait is the runtime's time.Sleep or time.Timer.
func openWakeTimer() (*wakeTimer, error) { return nil, errors.ErrUnsupported }

func (t *wakeTimer) arm(time.Duration) error { return errors.ErrUnsupported }
