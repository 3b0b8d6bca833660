#include "lu/lu_impl.hpp"

namespace npb::lu_detail {
template AppOutput lu_run<Unchecked>(const AppParams&, const par::Launch&);
template AppOutput lu_run_hp<Unchecked>(const AppParams&, const par::Launch&);
}  // namespace npb::lu_detail
