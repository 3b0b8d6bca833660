#include "cg/cg_impl.hpp"

namespace npb::cg_detail {
template CgOutput cg_run<Unchecked>(const CgParams&, const par::Launch&);
}  // namespace npb::cg_detail
