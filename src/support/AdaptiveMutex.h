//===- support/AdaptiveMutex.h - Spin-then-sleep mutex --------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutex for critical sections much shorter than a sleep and wake-up.
/// A contended lock() spins for a bounded while before it sleeps, so a
/// thread that finds the lock held for a moment does not pay the sleep
/// and wake-up, which on a virtual machine can cost 10 us when the
/// waiter's core has gone idle. It is glibc's adaptive mutex where the
/// C library has one and a plain mutex otherwise. It meets the standard
/// Lockable requirements, so std::lock_guard and std::unique_lock take
/// it. The port table stripes its ports over 64 of these, each on its
/// own cache line, so a mutator writing one port and the finalization
/// executor closing another rarely meet on one; when they do, the
/// loser spins through the other's short call instead of sleeping.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SUPPORT_ADAPTIVEMUTEX_H
#define GENGC_SUPPORT_ADAPTIVEMUTEX_H

#include <pthread.h>

namespace gengc {

class AdaptiveMutex {
public:
  AdaptiveMutex() = default;
  AdaptiveMutex(const AdaptiveMutex &) = delete;
  AdaptiveMutex &operator=(const AdaptiveMutex &) = delete;
  ~AdaptiveMutex() { pthread_mutex_destroy(&M); }

  void lock() { pthread_mutex_lock(&M); }
  bool try_lock() { return pthread_mutex_trylock(&M) == 0; }
  void unlock() { pthread_mutex_unlock(&M); }

private:
#ifdef PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP
  pthread_mutex_t M = PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP;
#else
  pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;
#endif
};

} // namespace gengc

#endif // GENGC_SUPPORT_ADAPTIVEMUTEX_H
