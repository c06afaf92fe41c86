#include "runtime/metrics.hh"

namespace varsched::metrics
{

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Registry &
Registry::global()
{
    static Registry *g = new Registry; // never destroyed: usable from
    return *g;                         // other static destructors
}

} // namespace varsched::metrics
