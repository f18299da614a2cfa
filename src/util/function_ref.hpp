// FunctionRef: a non-owning reference to a callable.
//
// The enumerators that stream every wire or node of a layout call their
// callback once per element; FunctionRef lets them take any lambda without
// std::function's type-erased copy (and possible heap allocation) of the
// callable.  A FunctionRef must not outlive the callable it refers to, so
// use it only for parameters that are called before the function returns.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace bfly {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): binds lambdas at call sites
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace bfly
