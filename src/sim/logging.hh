/**
 * @file
 * Error reporting and status messages, following the gem5 conventions:
 *
 *  - panic():  something happened that should never happen regardless of
 *              what the user does, i.e. a simulator bug.
 *  - fatal():  the simulation cannot continue due to a user error (bad
 *              configuration, malformed assembly, invalid arguments).
 *  - warn()/inform(): status messages; never stop the simulation.
 *
 * Unlike gem5, panic() and fatal() throw (PanicError / FatalError) rather
 * than abort()/exit(1) so that unit tests can assert on them; main()
 * wrappers catch SimError and exit non-zero.
 *
 * warn() and inform() print at once, except on a thread that holds its
 * messages (MessageHold): a shard worker of a parallel run does, so the
 * scheduler can print every shard's lines in simulated-time order.
 */

#ifndef ULP_SIM_LOGGING_HH
#define ULP_SIM_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ulp::sim {

class EventQueue;

/** Base class for simulation-terminating errors. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** Thrown by panic(): an internal simulator bug. */
class PanicError : public SimError
{
  public:
    using SimError::SimError;
};

/** Thrown by fatal(): a user/configuration error. */
class FatalError : public SimError
{
  public:
    using SimError::SimError;
};

/** printf-style formatting into a std::string. */
std::string vcsprintf(const char *fmt, std::va_list args);
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and throw PanicError. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a user error and throw FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr; simulation continues. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by benches for clean tables). */
void setQuiet(bool quiet);

/** A warn()/inform() line held back, with the tick it was raised at. */
struct HeldMessage
{
    Tick tick;
    std::string line; ///< the whole line, prefix and newline included
};

/**
 * While alive, warn() and inform() on the constructing thread append
 * their line to @p held, stamped with @p queue's current tick, instead
 * of printing it. Holds nest; the innermost one collects.
 */
class MessageHold
{
  public:
    MessageHold(const EventQueue &queue, std::vector<HeldMessage> &held);
    ~MessageHold();

    MessageHold(const MessageHold &) = delete;
    MessageHold &operator=(const MessageHold &) = delete;

    /** Hold @p line, stamped with the queue's current tick. */
    void add(std::string line);

  private:
    const EventQueue &queue;
    std::vector<HeldMessage> &held;
    MessageHold *outer;
};

} // namespace ulp::sim

#endif // ULP_SIM_LOGGING_HH
