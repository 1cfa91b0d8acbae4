#include "fault/fault.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "core/error.hh"
#include "geom/rng.hh"
#include "sim/logging.hh"

namespace texdist
{

namespace
{

/** A CLI-surface ParseError pointing at the --fault spec. */
[[noreturn]] void
faultFail(const std::string &spec, ParseRule rule, std::string msg)
{
    throw ParseError(ParseSurface::Cli, rule,
                     "fault spec '" + spec + "': " + std::move(msg))
        .field("--fault");
}

/** Strict decimal u64: digits only, no sign, no overflow. */
uint64_t
parseFaultU64(const std::string &value, const char *what,
              const std::string &spec)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        faultFail(spec, ParseRule::Syntax,
                  std::string(what) +
                      " expects a non-negative integer, got '" +
                      value + "'");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE)
        faultFail(spec, ParseRule::Range,
                  std::string(what) + " out of range: '" + value +
                      "'");
    return uint64_t(v);
}

FaultKind
kindFromString(const std::string &name, const std::string &spec)
{
    if (name == "slow-node")
        return FaultKind::SlowNode;
    if (name == "bus-stall")
        return FaultKind::BusStall;
    if (name == "fifo-freeze")
        return FaultKind::FifoFreeze;
    if (name == "kill-node")
        return FaultKind::KillNode;
    faultFail(spec, ParseRule::Unknown,
              "unknown fault kind '" + name +
                  "' (want slow-node, bus-stall, fifo-freeze or "
                  "kill-node)");
}

} // namespace

const char *
to_string(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SlowNode:
        return "slow-node";
      case FaultKind::BusStall:
        return "bus-stall";
      case FaultKind::FifoFreeze:
        return "fifo-freeze";
      case FaultKind::KillNode:
        return "kill-node";
    }
    return "?";
}

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    os << to_string(kind) << ":";
    if (victim == faultRandomVictim)
        os << "rand";
    else
        os << victim;
    os << ",at=" << at;
    if (duration > 0)
        os << ",for=" << duration;
    if (kind == FaultKind::SlowNode)
        os << ",x=" << factor;
    return os.str();
}

FaultSpec
parseFaultSpec(const std::string &spec)
{
    FaultSpec out;

    // Split "kind[:victim]" from the ",key=value" tail.
    size_t comma = spec.find(',');
    std::string head = spec.substr(0, comma);
    size_t colon = head.find(':');
    out.kind = kindFromString(head.substr(0, colon), spec);
    if (colon != std::string::npos) {
        std::string victim = head.substr(colon + 1);
        if (victim == "rand")
            out.victim = faultRandomVictim;
        else {
            uint64_t v = parseFaultU64(victim, "victim", spec);
            if (v >= faultRandomVictim)
                faultFail(spec, ParseRule::Range,
                          "victim out of range: " +
                              std::to_string(v));
            out.victim = uint32_t(v);
        }
    }

    bool saw_factor = false;
    std::string tail =
        comma == std::string::npos ? "" : spec.substr(comma + 1);
    std::istringstream fields(tail);
    std::string field;
    while (std::getline(fields, field, ',')) {
        size_t eq = field.find('=');
        if (eq == std::string::npos)
            faultFail(spec, ParseRule::Syntax,
                      "expected key=value, got '" + field + "'");
        std::string key = field.substr(0, eq);
        std::string value = field.substr(eq + 1);
        if (key == "at") {
            out.at = parseFaultU64(value, "at", spec);
        } else if (key == "for") {
            out.duration = parseFaultU64(value, "for", spec);
            if (out.duration == 0)
                faultFail(spec, ParseRule::Range,
                          "for= must be positive (omit it for a "
                          "permanent fault)");
        } else if (key == "x") {
            uint64_t x = parseFaultU64(value, "x", spec);
            if (x < 2 || x > 1024)
                faultFail(spec, ParseRule::Range,
                          "x= must be in [2, 1024], got " +
                              std::to_string(x));
            out.factor = uint32_t(x);
            saw_factor = true;
        } else {
            faultFail(spec, ParseRule::Unknown,
                      "unknown key '" + key +
                          "' (want at, for or x)");
        }
    }

    if (saw_factor && out.kind != FaultKind::SlowNode)
        faultFail(spec, ParseRule::Mismatch,
                  "x= only applies to slow-node");
    return out;
}

void
FaultPlan::add(const std::string &spec)
{
    if (spec.empty())
        faultFail(spec, ParseRule::Syntax, "empty fault spec");
    std::istringstream parts(spec);
    std::string one;
    while (std::getline(parts, one, ';')) {
        if (one.empty())
            continue;
        faults.push_back(parseFaultSpec(one));
    }
}

std::vector<FaultSpec>
FaultPlan::resolve(uint32_t num_procs) const
{
    Rng rng(seed);
    return resolve(num_procs, rng);
}

std::vector<FaultSpec>
FaultPlan::resolve(uint32_t num_procs, Rng &rng) const
{
    // Victims depend on the seed and on the draw order only, never
    // on wall-clock or address-space accidents, so identical plans
    // replay identically.
    std::vector<FaultSpec> out;
    out.reserve(faults.size());
    for (const FaultSpec &spec : faults) {
        FaultSpec r = spec;
        if (r.victim == faultRandomVictim)
            r.victim =
                uint32_t(rng.uniformInt(0, int64_t(num_procs) - 1));
        else if (r.victim >= num_procs)
            throw ParseError(ParseSurface::Cli, ParseRule::Range,
                             "fault '" + spec.describe() +
                                 "': victim " +
                                 std::to_string(r.victim) +
                                 " out of range for " +
                                 std::to_string(num_procs) +
                                 " processors")
                .field("--fault");
        out.push_back(r);
    }
    return out;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    for (size_t i = 0; i < faults.size(); ++i) {
        if (i)
            os << ";";
        os << faults[i].describe();
    }
    return os.str();
}

} // namespace texdist
