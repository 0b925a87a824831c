// Package walltimer waits on the wall clock with the resolution the
// kernel's timers give, for waits well under a millisecond.
//
// time.After and time.Sleep cannot: when nothing else is runnable, Go's
// scheduler parks the process in the netpoller's epoll_wait, whose timeout
// is whole milliseconds, so on Linux any wait under 1 ms lasts about
// 1.1 ms. A Timer is a timerfd registered with that same netpoller, so its
// expiry is itself the poller's wake-up. On other platforms a Timer is a
// plain runtime timer.
package walltimer
