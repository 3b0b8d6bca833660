#include "sp/sp_impl.hpp"

namespace npb::sp_detail {
template AppOutput sp_run<Unchecked>(const AppParams&, const par::Launch&);
}  // namespace npb::sp_detail
