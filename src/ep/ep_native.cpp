#include "ep/ep_impl.hpp"

namespace npb::ep_detail {
template EpOutput ep_run<Unchecked>(int, const par::Launch&);
}  // namespace npb::ep_detail
