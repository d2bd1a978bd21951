#include "sim/logging.hh"

#include <cstdio>

#include "sim/event_queue.hh"

namespace ulp::sim {

namespace {

bool quietMode = false;

/** The innermost hold on this thread; null prints at once. */
thread_local MessageHold *activeHold = nullptr;

void
emit(const char *prefix, const std::string &msg)
{
    std::string line = prefix + msg + "\n";
    if (activeHold)
        activeHold->add(std::move(line));
    else
        std::fputs(line.c_str(), stderr);
}

} // namespace

std::string
vcsprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
csprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vcsprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    throw PanicError("panic: " + msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    throw FatalError("fatal: " + msg);
}

void
warn(const char *fmt, ...)
{
    if (quietMode)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit("warn: ", msg);
}

void
inform(const char *fmt, ...)
{
    if (quietMode)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit("info: ", msg);
}

void
setQuiet(bool quiet)
{
    quietMode = quiet;
}

MessageHold::MessageHold(const EventQueue &queue,
                         std::vector<HeldMessage> &held)
    : queue(queue), held(held), outer(activeHold)
{
    activeHold = this;
}

MessageHold::~MessageHold()
{
    activeHold = outer;
}

void
MessageHold::add(std::string line)
{
    held.push_back({queue.curTick(), std::move(line)});
}

} // namespace ulp::sim
