package live

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// openWakeTimer opens a CLOCK_MONOTONIC timerfd, non-blocking and
// close-on-exec, as a file the netpoller watches.
func openWakeTimer() (*wakeTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	t := &wakeTimer{f: os.NewFile(fd, "timerfd"), fd: fd}
	// A file the netpoller could not register has no deadlines, and a
	// read of it would not block.
	if err := t.f.SetReadDeadline(time.Time{}); err != nil {
		t.f.Close()
		return nil, err
	}
	return t, nil
}

// arm makes the timer expire once, d from now; d ≤ 0 disarms it.
func (t *wakeTimer) arm(d time.Duration) error {
	var spec struct{ interval, value syscall.Timespec }
	if d > 0 {
		spec.value = syscall.NsecToTimespec(int64(d))
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}
