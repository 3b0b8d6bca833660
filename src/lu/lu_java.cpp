#include "lu/lu_impl.hpp"

namespace npb::lu_detail {
template AppOutput lu_run<Checked>(const AppParams&, const par::Launch&);
template AppOutput lu_run_hp<Checked>(const AppParams&, const par::Launch&);
}  // namespace npb::lu_detail
