#include "cg/cg_impl.hpp"

namespace npb::cg_detail {
template CgOutput cg_run<Checked>(const CgParams&, const par::Launch&);
}  // namespace npb::cg_detail
