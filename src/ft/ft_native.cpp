#include "ft/ft_impl.hpp"

namespace npb::ft_detail {
template FtOutput ft_run<Unchecked>(const FtParams&, const par::Launch&);
}  // namespace npb::ft_detail
