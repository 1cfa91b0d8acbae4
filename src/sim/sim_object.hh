/**
 * @file
 * Base class for named simulation components (the texture nodes)
 * that expose statistics.
 */

#ifndef TEXDIST_SIM_SIM_OBJECT_HH
#define TEXDIST_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/stats.hh"

namespace texdist
{

/**
 * A named component. Subclasses register their statistics with the
 * embedded StatGroup.
 */
class SimObject
{
  public:
    explicit SimObject(std::string name)
        : _stats(name), _name(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }

    /** Statistics registered by this object. */
    const StatGroup &stats() const { return _stats; }

    /** Dump this object's statistics. */
    void dumpStats(std::ostream &os) const { _stats.dump(os); }

  protected:
    StatGroup _stats;

  private:
    std::string _name;
};

} // namespace texdist

#endif // TEXDIST_SIM_SIM_OBJECT_HH
